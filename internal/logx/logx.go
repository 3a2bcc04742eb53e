// Package logx is the CLIs' shared setup: every espresso command
// registers the same -log-level and -log-json flags, builds one
// slog.Logger from them, and routes its stderr diagnostics through it,
// so a request ID printed by espresso-serve greps the same way in a
// terminal session and in a log aggregator. The other plumbing the
// commands repeat lives here too: the die-with-diagnostics path (Fatal),
// the -listen observability endpoint (Listen) and artifact output
// (WriteFile).
package logx

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"espresso/internal/obs"
	"espresso/internal/obs/serve"
)

// Flags holds the parsed logging flags. Register installs them on a
// FlagSet; Logger builds the logger after flag parsing.
type Flags struct {
	Level string
	JSON  bool
}

// Register installs -log-level and -log-json on fs (the default FlagSet
// when fs is nil).
func (f *Flags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Level, "log-level", "info", "log verbosity: debug, info, warn, error")
	fs.BoolVar(&f.JSON, "log-json", false, "emit logs as JSON lines instead of text")
}

// ParseFlags registers the logging flags on the default FlagSet, beside
// the flags the command has defined, parses the command line and returns
// the logger — the first thing every command's main does.
func ParseFlags() *slog.Logger {
	var f Flags
	f.Register(nil)
	flag.Parse()
	return f.Logger()
}

// ParseLevel maps a -log-level value to its slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("logx: unknown log level %q (want debug, info, warn, or error)", s)
}

// Logger builds the stderr logger the flags describe. An unknown level
// falls back to info with a warning rather than aborting the command.
func (f *Flags) Logger() *slog.Logger {
	level, err := ParseLevel(f.Level)
	log := New(os.Stderr, level, f.JSON)
	if err != nil {
		log.Warn("invalid -log-level, using info", "value", f.Level)
	}
	return log
}

// New builds a logger on w at the given level, as JSON lines or
// logfmt-style text.
func New(w *os.File, level slog.Level, json bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// Fatal logs err at error level and exits 1 — the CLIs' shared
// die-with-diagnostics path.
func Fatal(log *slog.Logger, msg string, args ...any) {
	if log == nil {
		log = slog.Default()
	}
	log.Error(msg, args...)
	os.Exit(1)
}

// Listen starts the observability endpoint (/metrics, /healthz,
// /debug/pprof, plus whatever opts mount) on addr and logs its URL — the
// commands' shared -listen start-up. A listen failure is fatal. The
// caller closes (or drains) the returned server.
func Listen(log *slog.Logger, addr string, m *obs.Metrics, opts ...serve.Option) *serve.Server {
	srv, err := serve.Start(addr, m, opts...)
	if err != nil {
		Fatal(log, "listen failed", "addr", addr, "err", err)
	}
	log.Info("observability endpoint up", "url", srv.URL)
	return srv
}

// WriteFile streams one artifact (a trace, a metrics registry, a
// profile) to path through write.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
