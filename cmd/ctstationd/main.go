// Command ctstationd runs the Code Tomography base station as a
// long-running service: it ingests CTP2 trace frames from deployed motes
// over TCP (length-prefixed, per-frame ACK/NAK) and UDP (fire-and-forget),
// reassembles the per-mote streams on a set of shards, seals estimation
// epochs as traffic accumulates, and serves the resulting branch-
// probability models and layout suggestions over HTTP. With a data
// directory it journals every frame, so a restart resumes estimation
// exactly where the previous process stopped.
//
// Usage:
//
//	ctstationd [-listen 127.0.0.1:7100] [-http 127.0.0.1:7180] [-data dir] [-shards 2] [-epoch 64] file.mc
//
// SIGINT or SIGTERM drains the shards, flushes a final snapshot, and
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"codetomo/internal/cli"
	"codetomo/internal/station"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parse, validate, serve until ctx is
// cancelled, drain. Exit codes: 0 clean shutdown, 1 runtime failure, 2
// usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctstationd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:7100", "TCP ingest address")
	udp := fs.String("udp", "", "UDP ingest address (empty = TCP only)")
	httpAddr := fs.String("http", "127.0.0.1:7180", "HTTP API address")
	data := fs.String("data", "", "data directory for the frame log and model snapshots (empty = in-memory only)")
	shards := fs.Int("shards", 2, "reassembly shards (one worker each)")
	epoch := fs.Int("epoch", 64, "cut an estimation epoch every N accepted frames (0 = only via POST /v1/epoch)")
	tick := fs.Int("tick", 8, "the deployment's timer prescaler in cycles")
	estName := fs.String("estimator", "em", "estimator: em, moments, or histogram")
	static := fs.Bool("static", false, "pin statically resolved branches and check fits against the static envelope")
	minsamples := fs.Int("minsamples", 50, "fewest samples before a procedure's model is trusted")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	usage := cli.Usage(fs, stderr, "ctstationd", "[flags] file.mc")
	if fs.NArg() != 1 {
		return usage("expected exactly one source file, got %d args", fs.NArg())
	}
	if *shards < 1 {
		return usage("invalid -shards: %d", *shards)
	}
	if *epoch < 0 {
		return usage("invalid -epoch: %d frames", *epoch)
	}
	if *tick < 1 {
		return usage("invalid -tick: %d cycles", *tick)
	}
	if *minsamples < 1 {
		return usage("invalid -minsamples: %d", *minsamples)
	}
	est, err := cli.Estimator(*estName, *tick)
	if err != nil {
		return usage("invalid -estimator: %v", err)
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ctstationd:", err)
		return cli.ExitFailure
	}
	srv, err := station.New(station.Config{
		Program:       string(src),
		Shards:        *shards,
		TickDiv:       *tick,
		Estimator:     est,
		StaticResolve: *static,
		MinSamples:    *minsamples,
		EpochFrames:   *epoch,
		DataDir:       *data,
	})
	if err != nil {
		fmt.Fprintln(stderr, "ctstationd:", err)
		return cli.ExitFailure
	}

	// Bind everything before announcing anything, so a supervisor parsing
	// the addresses never sees a partially-bound station.
	tcpL, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(stderr, "ctstationd:", err)
		srv.Close()
		return cli.ExitFailure
	}
	var udpC net.PacketConn
	if *udp != "" {
		udpC, err = net.ListenPacket("udp", *udp)
		if err != nil {
			fmt.Fprintln(stderr, "ctstationd:", err)
			tcpL.Close()
			srv.Close()
			return cli.ExitFailure
		}
	}
	httpL, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintln(stderr, "ctstationd:", err)
		tcpL.Close()
		if udpC != nil {
			udpC.Close()
		}
		srv.Close()
		return cli.ExitFailure
	}

	fmt.Fprintf(stdout, "ctstationd: ingest tcp %s\n", tcpL.Addr())
	if udpC != nil {
		fmt.Fprintf(stdout, "ctstationd: ingest udp %s\n", udpC.LocalAddr())
	}
	fmt.Fprintf(stdout, "ctstationd: http %s\n", httpL.Addr())

	errCh := make(chan error, 3)
	go func() { errCh <- srv.ServeTCP(tcpL) }()
	if udpC != nil {
		go func() { errCh <- srv.ServeUDP(udpC) }()
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(httpL); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	code := cli.ExitOK
	select {
	case <-ctx.Done():
	case err := <-errCh:
		if err != nil {
			fmt.Fprintln(stderr, "ctstationd:", err)
			code = cli.ExitFailure
		}
	}

	// Drain: stop the listeners first so no new frames race the final
	// cut, then seal and flush.
	tcpL.Close()
	if udpC != nil {
		udpC.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx) //nolint:errcheck // lingering API readers lose the race, by design
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "ctstationd:", err)
		code = cli.ExitFailure
	}
	fmt.Fprintf(stdout, "ctstationd: drained; %d epochs sealed, %d frames ingested\n",
		srv.Epoch(), srv.Metrics().FramesAccepted)
	return code
}
