// Package stdlog is the stdlog analyzer corpus: a library package, so
// the log package's printer is refused and log/slog is not.
package stdlog

import (
	"log" // want `\[stdlog\] import of log: write through a \*slog.Logger`
	"log/slog"
)

// Report shows what the analyzer refuses beside what it asks for.
func Report(l *slog.Logger, n int) {
	log.Printf("%d pods", n)
	l.Info("pods", "n", n)
}
