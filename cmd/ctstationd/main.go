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
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"codetomo/internal/cli"
	"codetomo/internal/pipeline"
	"codetomo/internal/station"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parse, serve until ctx is cancelled,
// drain. It returns the cli exit code; a clean shutdown exits 0.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("ctstationd", "[flags] file.mc", stderr)
	var cfg station.Config
	listen := fs.String("listen", "127.0.0.1:7100", "TCP ingest address")
	udp := fs.String("udp", "", "UDP ingest address (empty = TCP only)")
	httpAddr := fs.String("http", "127.0.0.1:7180", "HTTP API address")
	fs.StringVar(&cfg.DataDir, "data", "", "data directory for the frame log and model snapshots (empty = in-memory only)")
	cli.Int(fs, &cfg.Shards, "shards", 2, 1, math.MaxInt, "reassembly shards (one worker each)")
	cli.Int(fs, &cfg.EpochFrames, "epoch", 64, 0, math.MaxInt, "cut an estimation epoch every N accepted frames (0 = only via POST /v1/epoch)")
	cli.Tick(fs, &cfg.TickDiv)
	cli.Estimator(fs, &cfg.Estimator, &cfg.TickDiv)
	cli.Static(fs, &cfg.StaticResolve)
	cli.Int(fs, &cfg.MinSamples, "minsamples", pipeline.DefaultMinSamples, 1, math.MaxInt, "fewest samples before a procedure's model is trusted")
	if code, ok := fs.Parse(args, 1); !ok {
		return code
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fs.Fail(err)
	}
	cfg.Program = string(src)
	srv, err := station.New(cfg)
	if err != nil {
		return fs.Fail(err)
	}

	// Bind everything before announcing anything, so a supervisor parsing
	// the addresses never sees a partially-bound station.
	tcpL, err := net.Listen("tcp", *listen)
	var udpC net.PacketConn
	if err == nil && *udp != "" {
		udpC, err = net.ListenPacket("udp", *udp)
	}
	var httpL net.Listener
	if err == nil {
		httpL, err = net.Listen("tcp", *httpAddr)
	}
	if err != nil {
		for _, c := range []io.Closer{tcpL, udpC, httpL} {
			if c != nil {
				c.Close()
			}
		}
		srv.Close()
		return fs.Fail(err)
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
			code = fs.Fail(err)
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
		code = fs.Fail(err)
	}
	fmt.Fprintf(stdout, "ctstationd: drained; %d epochs sealed, %d frames ingested\n",
		srv.Epoch(), srv.Metrics().FramesAccepted)
	return code
}
