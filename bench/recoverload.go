package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/telemetry"
	"lightwave/internal/wal"
)

const (
	// recoverRecords is the length of the journaled intent history. It is
	// sized so one log-only plus one snapshot recovery take about half a
	// second and a run times a dozen pairs.
	recoverRecords = 60000
	// snapshotAt is the share of the history the second copy's
	// checkpoint covers; the rest is its log tail.
	snapshotAt = 0.9
)

// recoverCold is the recover_cold workload: cold-start recovery of a
// fleet from a state directory, log-only and snapshot+tail alternating,
// each from a fresh copy of the directory.
type recoverCold struct {
	e       *env
	reg     *telemetry.Registry
	root    string
	logDir  string // full history, no snapshot
	snapDir string // checkpoint at snapshotAt plus the tail
	digest  string

	tr *tracer
	ln *lane
}

// journalInto writes entries through a NoSync store into dir, taking a
// checkpoint after the first checkpointAfter entries when that is
// positive, and returns the final intent digest.
func journalInto(dir string, entries []fleet.JournalEntry, checkpointAfter int) (string, error) {
	st, err := wal.OpenStore(dir, wal.Options{NoSync: true})
	if err != nil {
		return "", err
	}
	for i, e := range entries {
		if err := st.JournalFleet(e); err != nil {
			st.Close()
			return "", err
		}
		if i+1 == checkpointAfter {
			if err := st.Checkpoint(); err != nil {
				st.Close()
				return "", err
			}
		}
	}
	d, err := st.FleetDigest()
	if err != nil {
		st.Close()
		return "", err
	}
	return d, st.Close()
}

func setupRecover(e *env, tr *tracer) (instance, error) {
	w := &recoverCold{e: e, reg: telemetry.NewRegistry(), tr: tr}
	if tr != nil {
		w.ln = tr.newLane()
	}
	var err error
	if w.root, err = os.MkdirTemp(e.stateRoot, "recover-"); err != nil {
		return nil, err
	}
	w.logDir, w.snapDir = filepath.Join(w.root, "log"), filepath.Join(w.root, "snap")
	entries := journalStream(e.seed, recoverRecords)
	if w.digest, err = journalInto(w.logDir, entries, 0); err != nil {
		w.close()
		return nil, err
	}
	d2, err := journalInto(w.snapDir, entries, int(snapshotAt*float64(len(entries))))
	if err == nil && d2 != w.digest {
		err = fmt.Errorf("snapshot copy digest %s differs from log copy %s", d2, w.digest)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	// Warm-up: one recovery of each kind, so the page cache holds both
	// directories and lazy initialisation is done.
	if _, err := w.pair(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverOnce copies src (untimed) and times the daemon's boot sequence
// over the copy: OpenStore → BeginRecovery → four fresh pods →
// RecoverFleet → EndRecovery → every pod converged → digest equal to the
// one set-up recorded. kind names the spans ("log" or "snap"). The
// returned cost covers the boot sequence only.
func (w *recoverCold) recoverOnce(src, kind string) (cost, error) {
	dst := filepath.Join(w.root, "work")
	if err := os.RemoveAll(dst); err != nil {
		return cost{}, err
	}
	if err := copyDir(src, dst); err != nil {
		return cost{}, err
	}
	rig := &fleetRig{}
	c, err := timed(func() error { return w.boot(dst, kind, rig) })
	if err != nil {
		return c, err
	}
	// Untimed: the recovered hardware state must be sound too.
	slices := 0
	for _, f := range rig.fabrics {
		slices += len(f.Slices())
	}
	if slices != numPods*10 {
		return c, fmt.Errorf("recovered %d slices, want %d", slices, numPods*10)
	}
	if errs := rig.checkFabrics(); len(errs) > 0 {
		return c, errs[0]
	}
	return c, nil
}

// boot is the timed part of recoverOnce; it leaves the recovered fabrics
// in rig, with the manager that drove them closed.
func (w *recoverCold) boot(dst, kind string, rig *fleetRig) error {
	var root uint64
	if w.tr != nil {
		root = w.tr.newIDs(1)
	}
	mark := func(name string, from time.Time) time.Time {
		now := time.Now()
		if w.tr != nil {
			w.ln.add(0, root, root, name, from, now)
		}
		return now
	}
	start := time.Now()
	st, err := wal.OpenStore(dst, wal.Options{Metrics: w.reg})
	if err != nil {
		return err
	}
	defer st.Close()
	opened := mark("wal.open_"+kind, start)
	st.BeginRecovery()
	mgr := fleet.NewManager(fleet.Options{Metrics: w.reg, Journal: st, Seed: w.e.seed})
	defer mgr.Close()
	for i := 0; i < numPods; i++ {
		f, err := newFabric(w.reg)
		if err != nil {
			return err
		}
		rig.fabrics = append(rig.fabrics, f)
		if err := mgr.AddPod(podName(i), fleet.NewFabricBackend(f, nil)); err != nil {
			return err
		}
	}
	built := mark("core.new_pods", opened)
	if err := st.RecoverFleet(mgr); err != nil {
		return err
	}
	st.EndRecovery()
	applied := mark("fleet.recover", built)
	deadline := applied.Add(waitLimit)
	for converged := false; !converged; {
		converged = true
		for _, p := range mgr.Status().Pods {
			converged = converged && p.Converged
		}
		if !converged {
			if time.Now().After(deadline) {
				return fmt.Errorf("recovered fleet not converged after %s", waitLimit)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	d, err := st.FleetDigest()
	if err != nil {
		return err
	}
	if d != w.digest {
		return fmt.Errorf("recovered digest %s, set-up journaled %s", d, w.digest)
	}
	end := mark("fleet.settle", applied)
	if w.tr != nil {
		w.ln.add(root, 0, root, "client.recover_"+kind, start, end)
	}
	return nil
}

// pair is one operation: a log-only recovery then a snapshot+tail one.
func (w *recoverCold) pair() (cost, error) {
	c1, err := w.recoverOnce(w.logDir, "log")
	if err != nil {
		return c1, err
	}
	c2, err := w.recoverOnce(w.snapDir, "snap")
	return c1.plus(c2), err
}

func (w *recoverCold) measure(seconds float64) phaseResult {
	return runPasses(seconds, func() (cost, error) {
		c, err := w.pair()
		if err != nil {
			fmt.Fprintln(os.Stderr, "recover_cold:", err)
		}
		return c, err
	})
}

// verify has nothing left to do: every recovery checks its own digest,
// convergence and fabric invariants and fails its pass otherwise.
func (w *recoverCold) verify() (int, []error) { return 0, nil }

func (w *recoverCold) registry() *telemetry.Registry { return w.reg }

func (w *recoverCold) close() error { return os.RemoveAll(w.root) }
