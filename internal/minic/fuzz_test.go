package minic_test

// External test package: the fuzz targets drive the whole compiler stack
// (minic -> compile -> analysis.Verify), which package minic itself cannot
// import without a cycle.

import (
	"strings"
	"testing"

	"codetomo/internal/compile"
	"codetomo/internal/minic"
)

// FuzzParse checks the front end never panics and that anything it accepts
// also passes (or is cleanly rejected by) the checker — and that anything
// the checker accepts lowers to IR that survives the inter-pass verifier
// under the most aggressive option set. Run with
// `go test -fuzz=FuzzParse ./internal/minic` for continuous fuzzing; the
// seed corpus runs as part of the normal test suite.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"var x int;",
		"func main() { }",
		"func main() { var x int = 1 + 2 * 3; debug(x); }",
		"func f(a int) int { return a; } func main() { f(1); }",
		"func main() { if (1 && 0 || 2) { led(1); } else { led(0); } }",
		"func main() { var i int; for (i = 0; i < 8; i = i + 1) { send(i); } }",
		"var a[8] int; func main() { a[0] = sense(); while (a[0] > 2) { a[0] = a[0] - 1; } }",
		"func main() { debug(0x1F ^ ~3 % 5 / 2 << 1 >> 1); }",
		"/* block */ // line\nfunc main() { }",
		"func main() { x = ; }",
		"var a[0] int;",
		"func main() { break; }",
		"@#$%",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Whatever parses must go through the checker without panicking.
		if err := minic.Check(file); err != nil {
			return
		}
		// Fully valid programs must also interpret without panicking
		// (runtime errors and step-limit stops are fine).
		_ = minic.Interpret(file, minic.Env{}, 50_000)

		// And they must compile with every pass enabled and the IR
		// re-verified after each one. Capacity-class rejections (frame or
		// immediate overflow on absurd inputs) are acceptable; a verifier
		// or validator failure is a compiler bug by definition.
		_, err = compile.Build(src, compile.Options{
			VerifyIR:       true,
			FuseCompares:   true,
			RotateLoops:    true,
			DeadBranchElim: true,
		})
		if err != nil && (strings.Contains(err.Error(), "IR verification failed") ||
			strings.Contains(err.Error(), "invalid CFG")) {
			t.Fatalf("checked program failed IR verification: %v\n%s", err, src)
		}
	})
}

// FuzzLexer checks the tokenizer never panics or loops.
func FuzzLexer(f *testing.F) {
	for _, s := range []string{"", "a b c", "0x", "123 0xFF", "<<=>>=!&&||", "\x00\xff", "var"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lex := minic.NewLexer(src)
		for i := 0; i < len(src)+16; i++ {
			tok, err := lex.Next()
			if err != nil || tok.Kind == minic.EOF {
				return
			}
		}
		t.Fatalf("lexer did not terminate on %q", src)
	})
}
