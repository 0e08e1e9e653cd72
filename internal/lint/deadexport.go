package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerDeadexport keeps the internal packages' exported surface
// honest: under Config.DeadExportScope, an exported function, method or
// type that no non-test code in the module references — outside its own
// declaration — is dead weight that still has to be read, kept compiling
// and kept consistent (the PR 7 RemoteBackend and RunLoad harness lived
// on for five PRs with no daemon constructing them). Test files are not
// loaded, so a symbol only its own tests call counts as dead: either
// something real needs it or the tests are testing nothing.
//
// Liveness is resolved module-wide by name (see RefIndex), over the
// module's packages and the non-test files of modules nested under it
// (bench/ imports the internal packages and is a root). A concrete
// method also counts as live when any interface in the module or its
// imports declares a method of that name: it may be reached through the
// interface (ctlrpc's providers, fmt.Stringer, io.Closer), which no
// syntactic reference shows. That makes the analyzer conservative, never
// noisy.
var AnalyzerDeadexport = &Analyzer{
	Name: "deadexport",
	Doc: "exported funcs, methods and types of the internal packages " +
		"must be referenced by non-test code outside their own declaration",
	Run: runDeadexport,
}

// RefIndex is the module-wide liveness index: which package-level symbols
// and methods non-test code references, and which method names interfaces
// declare. Packages are type-checked one at a time against export data,
// so objects are not comparable across them; the index keys on names.
type RefIndex struct {
	// used holds "pkgpath.Name" for funcs and types and
	// "pkgpath.Type.Method" for concrete methods.
	used map[string]bool
	// ifaceMethods holds every method name some interface declares.
	ifaceMethods map[string]bool
}

// NewRefIndex scans the packages' non-test syntax.
func NewRefIndex(pkgs []*Package) *RefIndex {
	// error is a universe type, and the errors package reaches Unwrap, Is
	// and As through interfaces declared inside function bodies, which
	// export data does not carry.
	idx := &RefIndex{used: map[string]bool{}, ifaceMethods: map[string]bool{
		"Error": true, "Unwrap": true, "Is": true, "As": true,
	}}
	seen := map[*types.Package]bool{}
	for _, pkg := range pkgs {
		idx.addInterfaces(pkg.Types, seen)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				idx.addDecl(pkg.Info, decl)
			}
		}
		// Interface literals never get a name in any scope.
		for _, tv := range pkg.Info.Types {
			idx.addInterface(tv.Type)
		}
	}
	return idx
}

// addInterfaces records the interfaces a package and its imports declare.
func (idx *RefIndex) addInterfaces(p *types.Package, seen map[*types.Package]bool) {
	if p == nil || seen[p] {
		return
	}
	seen[p] = true
	for _, name := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
			idx.addInterface(tn.Type())
		}
	}
	for _, imp := range p.Imports() {
		idx.addInterfaces(imp, seen)
	}
}

func (idx *RefIndex) addInterface(t types.Type) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			idx.ifaceMethods[iface.Method(i).Name()] = true
		}
	}
}

// addDecl records every reference inside one top-level declaration,
// except references to the symbol being declared (recursion is not a
// caller) and type names in receiver position (a type is not kept alive
// by having methods).
func (idx *RefIndex) addDecl(info *types.Info, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := symbolKey(info.Defs[d.Name])
		idx.addRefs(info, d.Type, self)
		if d.Body != nil {
			idx.addRefs(info, d.Body, self)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			self := ""
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self = symbolKey(info.Defs[ts.Name])
			}
			idx.addRefs(info, spec, self)
		}
	}
}

func (idx *RefIndex) addRefs(info *types.Info, n ast.Node, self string) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := symbolKey(info.Uses[id]); key != "" && key != self {
				idx.used[key] = true
			}
		}
		return true
	})
}

// symbolKey names a package-level func or type, or a concrete method, in
// a form that is stable across separately type-checked packages. Anything
// else — locals, fields, interface methods, builtins — yields "".
func symbolKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.TypeName:
		if o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
			return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
	}
	return ""
}

func runDeadexport(p *Pass) {
	if !strings.HasPrefix(p.ImportPath, p.Cfg.DeadExportScope) {
		return
	}
	check := func(id *ast.Ident, kind string) {
		if !id.IsExported() {
			return
		}
		key := symbolKey(p.Info.Defs[id])
		if key == "" || p.Refs.used[key] {
			return
		}
		p.Reportf(id.Pos(), "exported %s %s has no non-test reference outside its own declaration: delete it, unexport it, or give it a real caller", kind, id.Name)
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv == nil:
					check(d.Name, "function")
				case !p.Refs.ifaceMethods[d.Name.Name]:
					check(d.Name, "method")
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					check(spec.(*ast.TypeSpec).Name, "type")
				}
			}
		}
	}
}
