package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// Invalid flag combinations must exit non-zero and name the offending flag
// on stderr, so a misconfigured campaign fails loudly instead of running
// with silently-clamped parameters.
func TestRunRejectsInvalidFlags(t *testing.T) {
	prog := writeProgram(t)
	cases := []struct {
		name     string
		args     []string
		wantFlag string
	}{
		{"no file", []string{}, "one source file"},
		{"drop out of range", []string{"-drop", "1.5", prog}, "-drop"},
		{"negative corrupt", []string{"-corrupt", "-0.1", prog}, "-corrupt"},
		{"brownout out of range", []string{"-brownout", "2", prog}, "-brownout"},
		{"stuck out of range", []string{"-stuck", "-1", prog}, "-stuck"},
		{"negative arq", []string{"-arq", "-2", prog}, "-arq"},
		{"zero motes", []string{"-motes", "0", prog}, "-motes"},
		{"unknown estimator", []string{"-estimator", "psychic", prog}, "-estimator"},
		{"negative push retries", []string{"-push", "127.0.0.1:1", "-pushretries", "-1", prog}, "-pushretries"},
		{"unknown pgo pass", []string{"-pgo", "vectorize", prog}, "-pgo"},
		{"negative pagecost", []string{"-pagecost", "-1", prog}, "-pagecost"},
		{"negative tick", []string{"-tick", "-1", prog}, "-tick"},
		{"oversized packet", []string{"-packet", "100000", prog}, "-packet"},
		{"negative batches", []string{"-batches", "-1", prog}, "-batches"},
		{"negative workers", []string{"-workers", "-1", prog}, "-workers"},
		{"unknown workload", []string{"-workload", "tidal", prog}, "-workload"},
		{"unknown workloads entry", []string{"-workloads", "gaussian,tidal", prog}, "-workloads"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
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
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 || !strings.Contains(stderr.String(), "usage: ctfleet") {
		t.Fatalf("exit = %d, want 0 with the usage\nstderr: %s", code, stderr.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "nope.mc")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
}

func TestRunHappyPath(t *testing.T) {
	prog := writeProgram(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-motes", "2", "-workers", "2", prog}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"Fleet uplink", "estimates (per procedure", "placement result"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}
}

// A fleet campaign with static resolution, the PGO stack and a page
// penalty: the pipeline's output-equality gate makes exit 0 a semantics
// assertion.
func TestRunWithPGOPasses(t *testing.T) {
	prog := writeProgram(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-motes", "2", "-workers", "2", "-static", "-pgo", "inline,hotcold", "-pagecost", "5", prog}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "placement result") {
		t.Fatalf("stdout missing placement result:\n%s", stdout.String())
	}
}

// -push turns ctfleet into a station client: the fleet's frames go to a
// ctstationd TCP ingest instead of the local estimator.
func TestRunPushMode(t *testing.T) {
	prog := writeProgram(t)
	src, err := os.ReadFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := station.New(station.Config{Program: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeTCP(l)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-motes", "2", "-workers", "2", "-push", l.Addr().String(), prog}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "pushed 2 motes") {
		t.Fatalf("stdout missing push summary:\n%s", stdout.String())
	}
	if got := srv.Metrics().FramesAccepted; got == 0 {
		t.Fatal("station accepted no frames from the push")
	}
}

// The full fault path through the CLI: crashes, corruption, ARQ, and the
// robust estimator together must still complete and report recovery
// accounting.
func TestRunFaultyDeployment(t *testing.T) {
	prog := writeProgram(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-motes", "2", "-workers", "2",
		"-corrupt", "0.05", "-arq", "3",
		"-crash", "1000000", "-max-cycles", "4000000",
		"-estimator", "robust",
		prog,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "mote resets") {
		t.Fatalf("stdout missing fault accounting:\n%s", stdout.String())
	}
}

// A wedged station — accepts the connection, never ACKs — must fail the
// push loudly and point at the knob, not hang the campaign.
func TestRunPushTimeout(t *testing.T) {
	prog := writeProgram(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-motes", "1", "-workers", "1",
		"-push", l.Addr().String(), "-pushtimeout", "200ms",
		prog,
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-pushtimeout") {
		t.Fatalf("stderr does not point at -pushtimeout:\n%s", stderr.String())
	}
}
