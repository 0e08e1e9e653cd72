package lint

// AnalyzerStdlog enforces one logger (DESIGN.md §6): library packages and
// the two daemons write records with attributes through a *slog.Logger
// (a daemon's Daemon.Log, or the logger its caller passes in), never
// through the log package's process-global printer. Other main packages
// (lwplan, lwlint, the examples, the bench/ harness) may still exit
// through log.Fatal.
var AnalyzerStdlog = &Analyzer{
	Name: "stdlog",
	Doc: "library packages and the daemons (cmd/lwfd, cmd/lwfleetd) must " +
		"not import log: they write through a *slog.Logger",
	Run: runStdlog,
}

func runStdlog(p *Pass) {
	daemon := p.ImportPath == p.Cfg.ModulePath+"/cmd/lwfd" || p.ImportPath == p.Cfg.ModulePath+"/cmd/lwfleetd"
	if p.Pkg.Name() == "main" && !daemon {
		return
	}
	for _, f := range p.Files {
		for _, spec := range f.Imports {
			if spec.Path.Value == `"log"` {
				p.Reportf(spec.Pos(), "import of log: write through a *slog.Logger so each record carries its attributes")
			}
		}
	}
}
