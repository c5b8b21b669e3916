package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	codetomo "codetomo"
	"codetomo/internal/station"
)

const tinyProgram = `
func work(v int) int {
	var r int;
	r = 0;
	if (v > 500) {
		r = r + v % 13;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 200; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

func writeProgram(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(tinyProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// syncBuffer lets the test read run's stdout while run is still writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// Invalid flags must exit 2 and name the offending flag — the shared
// contract with ctomo and ctfleet.
func TestRunRejectsInvalidFlags(t *testing.T) {
	prog := writeProgram(t)
	cases := []struct {
		name     string
		args     []string
		wantFlag string
	}{
		{"no file", []string{}, "one source file"},
		{"zero shards", []string{"-shards", "0", prog}, "-shards"},
		{"negative epoch", []string{"-epoch", "-1", prog}, "-epoch"},
		{"zero tick", []string{"-tick", "0", prog}, "-tick"},
		{"zero minsamples", []string{"-minsamples", "0", prog}, "-minsamples"},
		{"unknown estimator", []string{"-estimator", "psychic", prog}, "-estimator"},
		{"two files", []string{prog, prog}, "one source file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantFlag) {
				t.Fatalf("stderr does not name %q:\n%s", tc.wantFlag, stderr.String())
			}
			if !strings.Contains(stderr.String(), "usage:") {
				t.Fatalf("stderr has no usage message:\n%s", stderr.String())
			}
		})
	}
}

func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 || !strings.Contains(stderr.String(), "usage: ctstationd") {
		t.Fatalf("exit = %d, want 0 with the usage\nstderr: %s", code, stderr.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{filepath.Join(t.TempDir(), "nope.mc")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
}

// waitForAddr polls run's stdout for an announced address line.
func waitForAddr(t *testing.T, out *syncBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %q line in stdout:\n%s", prefix, out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pushAndCut waits for a booting daemon's addresses, pushes one simulated
// fleet round over TCP, and cuts the first epoch over HTTP, which must
// serve a snapshot with estimated procedures. It returns the HTTP address.
func pushAndCut(t *testing.T, stdout *syncBuffer) string {
	t.Helper()
	tcpAddr := waitForAddr(t, stdout, "ctstationd: ingest tcp ")
	httpAddr := waitForAddr(t, stdout, "ctstationd: http ")

	uploads, err := codetomo.FleetUploads(tinyProgram, codetomo.FleetConfig{Motes: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, up := range uploads {
		frames = append(frames, up.Frames...)
	}
	st, err := station.PushFrames(tcpAddr, frames, station.PushConfig{Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acked == 0 || st.Failed != 0 {
		t.Fatalf("push stats %+v", st)
	}

	resp, err := http.Post("http://"+httpAddr+"/v1/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap station.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Epoch != 1 || len(snap.Procs) == 0 {
		t.Fatalf("POST /v1/epoch = %+v", snap)
	}
	return httpAddr
}

// The full loopback round trip: boot the daemon on ephemeral ports, push
// one simulated fleet round over TCP, cut an epoch over HTTP, read the
// models back, and shut down cleanly with exit 0.
func TestStationSmoke(t *testing.T) {
	prog := writeProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-udp", "127.0.0.1:0",
			"-epoch", "0", "-data", t.TempDir(), prog,
		}, &stdout, &stderr)
	}()

	httpAddr := pushAndCut(t, &stdout)

	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Epoch != 1 {
		t.Fatalf("/healthz = %+v", health)
	}

	resp, err = http.Get("http://" + httpAddr + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models station.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models.Procs) == 0 {
		t.Fatal("GET /v1/models returned no procedures")
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain after cancel\nstdout: %s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Fatalf("no drain message:\n%s", stdout.String())
	}
}

// -estimator robust boots a station that estimates with the
// outlier-trimming robust estimator and serves its snapshot.
func TestStationRobustEstimator(t *testing.T) {
	prog := writeProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-epoch", "0",
			"-estimator", "robust", prog,
		}, &stdout, &stderr)
	}()
	pushAndCut(t, &stdout)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain after cancel\nstdout: %s", stdout.String())
	}
}
