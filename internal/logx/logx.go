// Package logx is the CLIs' shared structured-logging setup: every
// espresso command registers the same -log-level and -log-json flags,
// builds one slog.Logger from them, and routes its stderr diagnostics
// through it, so a request ID printed by espresso-serve greps the same
// way in a terminal session and in a log aggregator.
package logx

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
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
