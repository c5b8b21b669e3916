package minic

import (
	"errors"
	"testing"
)

// runInterp executes src, returning the debug capture.
func runInterp(t *testing.T, src string, sense []uint16, maxSteps int) ([]uint16, error) {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	si := 0
	var out []uint16
	env := Env{
		Sense: func() uint16 {
			if len(sense) == 0 {
				return 0
			}
			v := sense[si%len(sense)]
			si++
			return v
		},
		Debug: func(v uint16) { out = append(out, v) },
	}
	err = Interpret(f, env, maxSteps)
	return out, err
}

func TestInterpretArithmetic(t *testing.T) {
	src := `
func main() {
	var a int;
	a = 0 - 7;
	debug(a / 2 + 100);   // 97
	debug(a % 2 + 100);   // 99
	debug(a >> 1);        // arithmetic: 0xFFFC
	debug(30000 + 30000); // wraps to 60000
	debug(1 << 4);        // 16
	debug(~0);            // 0xFFFF
}`
	got, err := runInterp(t, src, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{97, 99, 0xFFFC, 60000, 16, 0xFFFF}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("debug = %v, want %v", got, want)
		}
	}
}

func TestInterpretControlAndCalls(t *testing.T) {
	src := `
var g int = 5;
var arr[4] int;

func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}

func main() {
	var i int;
	var s int;
	s = 0;
	for (i = 0; i < 10; i = i + 1) {
		if (i == 3) { continue; }
		if (i == 7) { break; }
		s = s + i;
	}
	debug(s);        // 18
	debug(fib(10));  // 55
	arr[2] = g * 3;
	debug(arr[2]);   // 15
	while (s > 4) { s = s - 5; }
	debug(s);        // 3
	debug(1 && 7);   // 1
	debug(0 || 0);   // 0
}`
	got, err := runInterp(t, src, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint16{18, 55, 15, 3, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("debug = %v, want %v", got, want)
		}
	}
}

func TestInterpretShortCircuitEffects(t *testing.T) {
	src := `
var hits int;
func bump() int { hits = hits + 1; return 1; }
func main() {
	var x int;
	x = 0 && bump();
	x = 1 || bump();
	debug(hits);       // 0: neither rhs evaluated
	x = 1 && bump();
	x = 0 || bump();
	debug(hits);       // 2
	debug(x);
}`
	got, err := runInterp(t, src, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("debug = %v", got)
	}
}

func TestInterpretStepLimit(t *testing.T) {
	src := `func main() { while (1) { } }`
	_, err := runInterp(t, src, nil, 1000)
	if !errors.Is(err, ErrInterpLimit) {
		t.Fatalf("err = %v, want step limit", err)
	}
}

func TestInterpretRuntimeErrors(t *testing.T) {
	cases := []string{
		`func main() { var z int; z = 0; debug(1 / z); }`,
		`func main() { var z int; z = 0; debug(1 % z); }`,
		`var a[4] int; func main() { var i int; i = 9; a[i] = 1; }`,
		`var a[4] int; func main() { var i int; i = 0 - 1; debug(a[i]); }`,
	}
	for _, src := range cases {
		if _, err := runInterp(t, src, nil, 0); err == nil {
			t.Errorf("Interpret(%q) succeeded, want error", src)
		}
	}
}

func TestInterpretSensor(t *testing.T) {
	src := `
func main() {
	debug(sense());
	debug(sense() + sense());
}`
	got, err := runInterp(t, src, []uint16{10, 20, 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 50 {
		t.Fatalf("debug = %v", got)
	}
}

func TestEvalConstWraps16(t *testing.T) {
	// Folding must match runtime 16-bit semantics, including negative
	// intermediates and arithmetic shifts.
	cases := map[string]int{
		"(0 - 478) * 80 / 4": 6824,   // wraps to +27296 before dividing
		"(0 - 47) >> 2":      -12,    // arithmetic shift
		"(0-1) & 255":        255,    // negative bit patterns
		"40000 + 40000":      14464,  // unsigned wrap
		"(0-300) * 300":      -24464, // wrap within signed range
	}
	for src, want := range cases {
		f := mustParse("var g int = " + src + "; func main() { }")
		v, err := EvalConst(f.Globals[0].Init)
		if err != nil {
			t.Errorf("EvalConst(%q): %v", src, err)
			continue
		}
		if v != want {
			t.Errorf("EvalConst(%q) = %d, want %d", src, v, want)
		}
	}
}
