// Package locknest is the locknest analyzer corpus. The test config
// declares the order Server.mu(1) → Injector.mu(2) → Pod.scope(3) →
// Pod.keys(4) → Journal(5) → Manager.mu(6), mirroring the real
// ctlrpc/chaos/fleet table.
package locknest

import "sync"

type Server struct{ mu sync.RWMutex }

type Injector struct {
	mu  sync.Mutex
	mgr *Manager
}

type Manager struct {
	mu  sync.Mutex
	inj *Injector
	jn  Journal
}

// Journal is an interface lock class: its body is out of reach, so a
// call through it counts as taking whatever it ranks as.
type Journal interface{ Journal(e int) error }

// Pod owns two classes: one RWMutex and an array of shard mutexes.
type Pod struct {
	scope sync.RWMutex
	keys  [4]sync.Mutex
}

// Apply follows the declared order: Injector.mu (2), then a Manager
// method that takes rank 3.
func (in *Injector) Apply() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.mgr.poke()
}

func (m *Manager) poke() {
	m.mu.Lock()
	defer m.mu.Unlock()
}

// badDirect inverts the order with a direct acquisition.
func (m *Manager) badDirect() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inj.mu.Lock() // want `\[locknest\] acquires locknest\.Injector\.mu \(rank 2\) while locknest\.Manager\.mu \(rank 6\) is held`
	m.inj.mu.Unlock()
}

// badViaCall inverts the order through the same-package call graph: the
// callee's summary says it acquires Injector.mu.
func (m *Manager) badViaCall() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inj.lockUnlock() // want `\[locknest\] call to lockUnlock acquires locknest\.Injector\.mu \(rank 2\) while locknest\.Manager\.mu \(rank 6\) is held`
}

func (in *Injector) lockUnlock() {
	in.mu.Lock()
	in.mu.Unlock()
}

// badRelock self-deadlocks on a non-reentrant mutex.
func (in *Injector) badRelock() {
	in.mu.Lock()
	in.mu.Lock() // want `\[locknest\] re-acquires locknest\.Injector\.mu already held on this path: self-deadlock`
	in.mu.Unlock()
	in.mu.Unlock()
}

// dispatch is the read-branch shape that demands branch sensitivity:
// the RLock+defer+return branch terminates, so the writer Lock below is
// not a re-acquisition.
func (s *Server) dispatch(readOnly bool) int {
	if readOnly {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return 2
}

// spawn hands work to a goroutine, which starts with no locks held, so
// the rank-2 acquisition inside is clean even under Manager.mu.
func (m *Manager) spawn() {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		m.inj.lockUnlock()
	}()
}

// intake is the declared order end to end: scope, a key shard, the
// journal, and Manager.mu last.
func (m *Manager) intake(p *Pod, k int) error {
	p.scope.RLock()
	defer p.scope.RUnlock()
	p.keys[k].Lock()
	defer p.keys[k].Unlock()
	if err := m.jn.Journal(k); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return nil
}

// badJournalUnderMu calls the journal with the manager lock held.
func (m *Manager) badJournalUnderMu() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jn.Journal(1) // want `\[locknest\] call to \(corpus/locknest\.Journal\)\.Journal acquires locknest\.Journal\.Journal \(rank 5\) while locknest\.Manager\.mu \(rank 6\) is held`
}

// badJournalViaHelper does the same through a same-package wrapper,
// whose summary carries the interface call.
func (m *Manager) badJournalViaHelper() {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.journal(1) // want `\[locknest\] call to journal acquires locknest\.Journal\.Journal \(rank 5\) while locknest\.Manager\.mu \(rank 6\) is held`
}

func (m *Manager) journal(e int) error { return m.jn.Journal(e) }

// badShardUnderMu takes one mutex of the shard array under Manager.mu.
func (m *Manager) badShardUnderMu(p *Pod) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.keys[0].Lock() // want `\[locknest\] acquires locknest\.Pod\.keys \(rank 4\) while locknest\.Manager\.mu \(rank 6\) is held`
	p.keys[0].Unlock()
}
