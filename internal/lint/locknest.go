package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerLocknest enforces the declared mutex acquisition order
// (Config.LockOrder). The PR 5 contract is the founding case: chaos
// injection takes Injector.mu and then calls fleet.Manager methods
// (which take Manager.mu), and the manager never calls back into the
// injector — so injection can never deadlock the reconciler. The
// analyzer is syntactic and intra-package: it walks each function in
// source order tracking which table mutexes are held (x.mu.Lock /
// Unlock / defer Unlock, x.shards[i].Lock for an array of mutexes),
// propagates acquisitions through the same-package call graph, and
// treats any call to an exported method of a Methods-marked class whose
// body is out of reach — another package's type, or an interface — as
// acquiring that class's lock. The interface case is how "never call the
// fleet journal with Manager.mu held" is declared: fleet.Journal ranks
// just below Manager.mu. Acquiring a rank at or below one already held is
// a deadlock hazard and is flagged.
var AnalyzerLocknest = &Analyzer{
	Name: "locknest",
	Doc: "mutexes in the declared lock-order table must be acquired in " +
		"ascending rank; taking a lower or equal rank while a higher one " +
		"is held is a deadlock hazard",
	Run: runLocknest,
}

type lockClass struct {
	LockClass
	key string // "importpath.Type"
}

// lockTable indexes the declared classes by owning type; one type may
// own several (a mutex per field).
type lockTable struct {
	byType map[string][]*lockClass
}

func newLockTable(order []LockClass) *lockTable {
	t := &lockTable{byType: make(map[string][]*lockClass, len(order))}
	for i := range order {
		c := &lockClass{LockClass: order[i], key: order[i].Type}
		t.byType[c.key] = append(t.byType[c.key], c)
	}
	return t
}

// classesOfType maps an expression's (possibly pointer) type to the lock
// classes it owns.
func (t *lockTable) classesOfType(typ types.Type) []*lockClass {
	if typ == nil {
		return nil
	}
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return t.byType[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// methodClass is the class an exported method acquires when its body is
// out of reach: the Methods-marked class of its receiver type, or nil.
func (t *lockTable) methodClass(callee *types.Func) *lockClass {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !callee.Exported() {
		return nil
	}
	for _, c := range t.classesOfType(sig.Recv().Type()) {
		if c.Methods {
			return c
		}
	}
	return nil
}

func (c *lockClass) label() string {
	short := c.key
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	return short + "." + c.Field
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

func runLocknest(p *Pass) {
	table := newLockTable(p.Cfg.LockOrder)
	if len(table.byType) == 0 {
		return
	}

	// Pass 1: per-function direct-acquisition summaries (closures
	// excluded — they run on their own goroutine or later in time), then
	// transitive closure over the same-package call graph.
	infos := make(map[*types.Func]*funcLockInfo)
	var fnBodies []*ast.BlockStmt // FuncDecl bodies to walk in pass 2

	collect := func(fn *types.Func, body *ast.BlockStmt) {
		fi := &funcLockInfo{acquires: make(map[*lockClass]bool), calls: make(map[*types.Func]bool)}
		infos[fn] = fi
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls, isLock, _ := p.directLockOp(table, call); cls != nil && isLock {
				fi.acquires[cls] = true
			}
			if callee := p.calleeFunc(call); callee != nil {
				fi.calls[callee] = true
			}
			return true
		})
	}

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			collect(fn, fd.Body)
			fnBodies = append(fnBodies, fd.Body)
		}
	}
	// Fixpoint: fold callee acquisitions into callers.
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for callee := range fi.calls {
				ci, ok := infos[callee]
				if !ok {
					if cls := table.methodClass(callee); cls != nil && !fi.acquires[cls] {
						fi.acquires[cls] = true
						changed = true
					}
					continue
				}
				for cls := range ci.acquires {
					if !fi.acquires[cls] {
						fi.acquires[cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: walk each function (and each closure, with an empty held
	// set) in statement order, tracking held locks and checking every
	// acquisition against them. Branches whose body terminates (return,
	// panic) restore the held set afterwards, so the common
	// "RLock+defer+return in a read branch, then Lock" shape does not
	// false-positive; alternative branches of a switch/select each start
	// from the same held set.
	w := &lockWalker{p: p, table: table, infos: infos, declared: orderString(p.Cfg.LockOrder)}
	for _, body := range fnBodies {
		w.walkFunc(body)
	}
}

type funcLockInfo struct {
	acquires map[*lockClass]bool
	calls    map[*types.Func]bool
}

type lockWalker struct {
	p        *Pass
	table    *lockTable
	infos    map[*types.Func]*funcLockInfo
	declared string

	held     []*lockClass
	closures []*ast.FuncLit
}

// walkFunc analyzes one function body, then every closure discovered in
// it, each with an empty held set (closures run later or elsewhere).
func (w *lockWalker) walkFunc(body *ast.BlockStmt) {
	w.held = nil
	w.walkStmts(body.List)
	for len(w.closures) > 0 {
		lit := w.closures[0]
		w.closures = w.closures[1:]
		w.held = nil
		w.walkStmts(lit.Body.List)
	}
}

func (w *lockWalker) check(pos ast.Node, cls *lockClass, via string) {
	for _, h := range w.held {
		if cls.Rank < h.Rank {
			w.p.Reportf(pos.Pos(), "%sacquires %s (rank %d) while %s (rank %d) is held; declared order is %s", via, cls.label(), cls.Rank, h.label(), h.Rank, w.declared)
			return
		}
		if cls == h {
			w.p.Reportf(pos.Pos(), "%sre-acquires %s already held on this path: self-deadlock", via, cls.label())
			return
		}
	}
}

func (w *lockWalker) release(cls *lockClass) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == cls {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

func (w *lockWalker) snapshot() []*lockClass { return append([]*lockClass(nil), w.held...) }

func (w *lockWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}
	case *ast.DeclStmt, *ast.ReturnStmt, *ast.IncDecStmt, *ast.SendStmt:
		ast.Inspect(s, w.exprVisitor())
	case *ast.DeferStmt:
		// defer x.mu.Unlock() keeps the lock held to function end; a
		// deferred closure is analyzed separately; any other deferred
		// call runs with at least the current locks unreleased on this
		// path, so it is checked here.
		if cls, isLock, isUnlock := w.p.directLockOp(w.table, s.Call); cls != nil {
			if isUnlock {
				return
			}
			if isLock {
				w.check(s, cls, "")
				w.held = append(w.held, cls)
				return
			}
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.closures = append(w.closures, lit)
			for _, a := range s.Call.Args {
				w.walkExpr(a)
			}
			return
		}
		w.walkExpr(s.Call)
	case *ast.GoStmt:
		// The spawned goroutine starts with no locks held.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.closures = append(w.closures, lit)
		}
		for _, a := range s.Call.Args {
			w.walkExpr(a)
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		before := w.snapshot()
		w.walkStmts(s.Body.List)
		if terminates(s.Body.List) {
			w.held = before
		}
		if s.Else != nil {
			beforeElse := w.snapshot()
			w.walkStmt(s.Else)
			if b, ok := s.Else.(*ast.BlockStmt); ok && terminates(b.List) {
				w.held = beforeElse
			}
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		w.walkStmts(s.Body.List)
		w.walkStmt(s.Post)
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		w.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Tag)
		w.walkCases(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		w.walkCases(s.Body)
	case *ast.SelectStmt:
		w.walkCases(s.Body)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

// walkCases treats each clause as an alternative starting from the same
// held set, restoring it afterwards (a clause that leaks a lock past the
// switch is rare enough to trade for zero false positives).
func (w *lockWalker) walkCases(body *ast.BlockStmt) {
	before := w.snapshot()
	for _, c := range body.List {
		w.held = append([]*lockClass(nil), before...)
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.walkExpr(e)
			}
			w.walkStmts(c.Body)
		case *ast.CommClause:
			w.walkStmt(c.Comm)
			w.walkStmts(c.Body)
		}
	}
	w.held = before
}

func (w *lockWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, w.exprVisitor())
}

// exprVisitor handles lock events and call summaries inside expressions,
// pruning closures into the separate-analysis queue.
func (w *lockWalker) exprVisitor() func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.closures = append(w.closures, n)
			return false
		case *ast.CallExpr:
			w.callEvent(n)
		}
		return true
	}
}

func (w *lockWalker) callEvent(call *ast.CallExpr) {
	if cls, isLock, isUnlock := w.p.directLockOp(w.table, call); cls != nil {
		if isLock {
			w.check(call, cls, "")
			w.held = append(w.held, cls)
		} else if isUnlock {
			w.release(cls)
		}
		return
	}
	callee := w.p.calleeFunc(call)
	if callee == nil {
		return
	}
	if fi, ok := w.infos[callee]; ok {
		for cls := range fi.acquires {
			w.check(call, cls, fmt.Sprintf("call to %s ", callee.Name()))
		}
		return
	}
	// Body out of reach (another package, or an interface): exported
	// methods of Methods-marked classes count as acquiring the class lock.
	if cls := w.table.methodClass(callee); cls != nil {
		recv := callee.Type().(*types.Signature).Recv().Type()
		w.check(call, cls, fmt.Sprintf("call to (%s).%s ", recv, callee.Name()))
	}
}

// terminates reports whether a statement list always leaves the
// enclosing function (return, panic) on its final statement.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

// directLockOp matches x.<field>.Lock()/Unlock()-shaped calls — and
// x.<field>[i].Lock() for an array of mutexes — against the table.
// Returns the class and whether the op acquires or releases.
func (p *Pass) directLockOp(table *lockTable, call *ast.CallExpr) (cls *lockClass, isLock, isUnlock bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	name := sel.Sel.Name
	if !lockMethods[name] && !unlockMethods[name] {
		return nil, false, false
	}
	x := sel.X
	if idx, ok := x.(*ast.IndexExpr); ok {
		x = idx.X
	}
	field, ok := x.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	for _, c := range table.classesOfType(p.TypeOf(field.X)) {
		if field.Sel.Name == c.Field {
			return c, lockMethods[name], unlockMethods[name]
		}
	}
	return nil, false, false
}

// calleeFunc resolves a call's static callee, or nil for dynamic calls,
// builtins, and conversions.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := p.objOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func orderString(order []LockClass) string {
	parts := make([]string, 0, len(order))
	for _, c := range order {
		short := c.Type
		if i := strings.LastIndex(short, "/"); i >= 0 {
			short = short[i+1:]
		}
		parts = append(parts, fmt.Sprintf("%s.%s(%d)", short, c.Field, c.Rank))
	}
	return strings.Join(parts, " → ")
}
