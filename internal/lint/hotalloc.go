package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerHotalloc enforces the 0-allocs/op contracts. Functions whose
// doc comment carries the //lwlint:hotpath marker (chaos trunk
// bookkeeping, the ctlrpc wirefast codec, the dcn flow-sim event loop,
// core's per-circuit admission) are steady-state paths whose benchmarks
// assert 0 allocs/op or report allocations per operation; this
// analyzer rejects the construct classes that silently reintroduce
// allocation: fmt calls, map/slice literals and makes, closures
// capturing variables, non-constant string concatenation, and
// conversions of non-pointer concrete values to interfaces. Escape
// analysis can sometimes prove such a construct free, so real exceptions
// are suppressed with a benchmark-backed reason.
var AnalyzerHotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "//lwlint:hotpath functions must stay allocation-free: no fmt, " +
		"map/slice literals or makes, capturing closures, string " +
		"concatenation, or concrete-to-interface conversions",
	Run: runHotalloc,
}

func runHotalloc(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasMarker(fd.Doc, hotpathMarker) {
				continue
			}
			p.checkHotBody(fd.Name.Name, fd.Body)
		}
	}
}

func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

func (p *Pass) checkHotBody(fname string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := p.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.Reportf(n.Pos(), "hotpath %s: map literal allocates", fname)
			case *types.Slice:
				p.Reportf(n.Pos(), "hotpath %s: slice literal allocates", fname)
			}
		case *ast.FuncLit:
			if capt := p.capturedVars(n); len(capt) > 0 {
				p.Reportf(n.Pos(), "hotpath %s: closure captures %s and allocates its context", fname, strings.Join(capt, ", "))
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			if tv, ok := p.Info.Types[n]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					p.Reportf(n.Pos(), "hotpath %s: string concatenation allocates", fname)
					// Nested concats share one diagnostic.
					return false
				}
			}
		case *ast.CallExpr:
			p.checkHotCall(fname, n)
		}
		return true
	})
}

func (p *Pass) checkHotCall(fname string, call *ast.CallExpr) {
	// Explicit conversion T(x)?
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && types.IsInterface(tv.Type) {
			p.reportIfaceConv(fname, call.Args[0], tv.Type, "conversion")
		}
		return
	}
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := p.objOf(id).(*types.Builtin); isBuiltin {
			if id.Name == "make" && len(call.Args) > 0 {
				if t := p.TypeOf(call); t != nil {
					switch t.Underlying().(type) {
					case *types.Map, *types.Slice, *types.Chan:
						p.Reportf(call.Pos(), "hotpath %s: make allocates", fname)
					}
				}
			}
			return
		}
	}
	// fmt anywhere in a hot path means both formatting work and
	// interface-boxed arguments.
	if fn := p.calleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(), "hotpath %s: fmt.%s allocates (formatting state and boxed arguments)", fname, fn.Name())
		return
	}
	// Implicit interface conversions at call boundaries.
	sig, ok := p.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		p.reportIfaceConv(fname, arg, pt, "implicit conversion")
	}
}

// reportIfaceConv flags value-to-interface conversions that box. Already
// interface-typed values, pointers and other word-sized reference types
// (chan, map, func, unsafe.Pointer), and untyped nil do not allocate.
func (p *Pass) reportIfaceConv(fname string, arg ast.Expr, target types.Type, how string) {
	tv, ok := p.Info.Types[arg]
	if !ok || tv.IsNil() {
		return
	}
	at := tv.Type
	if at == nil || types.IsInterface(at) {
		return
	}
	switch u := at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // word-sized reference values fit the interface word
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	p.Reportf(arg.Pos(), "hotpath %s: %s of %s to %s boxes the value and allocates", fname, how, at, target)
}

// capturedVars lists variables a func literal references that are
// declared outside it (and below package scope): the compiler must
// materialize a closure context for these.
func (p *Pass) capturedVars(lit *ast.FuncLit) []string {
	seen := make(map[types.Object]bool)
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == p.Pkg.Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params included)
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}
