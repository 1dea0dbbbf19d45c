package main

// The serve subcommand: `o2kbench serve -addr :8080` runs the experiment
// engine as a long-running HTTP daemon (internal/server, DESIGN.md §5.11)
// instead of a one-shot table regeneration. Its engine comes from the same
// engineFlags wiring as the CLI's (engine.go), so a daemon and a `-workers`
// fleet sharing one -cache directory coordinate through the same lease files.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"o2k/internal/server"
)

func runServe(args []string) int {
	fs := flag.NewFlagSet("o2kbench serve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	var ef engineFlags
	ef.register(fs)
	inflight := fs.Int("inflight", 4, "concurrently running experiment requests")
	queue := fs.Int("queue", 16, "requests allowed to wait for a run slot; beyond inflight+queue, 429")
	drainTimeout := fs.Duration("drain-timeout", time.Minute,
		"on SIGINT/SIGTERM: how long to wait for in-flight requests before closing connections")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "o2kbench serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := ef.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench serve:", err)
		return 2
	}

	// The engine lives on the *process's* context, not the signal context:
	// a drain must let admitted requests finish and commit their cells, so
	// shutdown stops the listener, never the engine.
	eng := ef.build(context.Background(), 0, 1)
	srv := server.New(server.Config{Engine: eng, MaxInflight: *inflight, MaxQueue: *queue})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench serve:", err)
		return 1
	}
	// The concrete address goes to stderr so scripts (and the drain test)
	// can discover a :0-assigned port.
	fmt.Fprintf(os.Stderr, "o2kbench: serving on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "o2kbench serve:", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain: refuse new work, let in-flight requests stream to completion
	// (their cells commit to the cache on the way), then report and exit.
	srv.Drain()
	code := 0
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	fmt.Fprintln(os.Stderr, "o2kbench: draining")
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench serve: drain:", err)
		hs.Close()
		code = 1
	}
	fmt.Fprint(os.Stderr, "\n"+eng.Report().Table().String())
	return code
}
