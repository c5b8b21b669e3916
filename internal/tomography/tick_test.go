package tomography

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A zero-valued estimator fits at the model's timer tick: Robust{} on a
// tick-4 model is EM with a kernel of 4 and a trim width of 16, to the bit.
func TestRobustFitsAtModelTick(t *testing.T) {
	m := syntheticModel(t)
	m.tickDiv = 4
	truth := trueProbs(m, 0.3, 0.7)
	samples := sampleDurations(t, m, truth, 2000, 4, 23)
	// Two far outliers, and one 24 cycles from the nearest path (87):
	// inside the trim width at a kernel of 8 (32), outside it at 4 (16).
	samples = append(samples, 1e6, -5e5, 87+24)

	h := CountSamples(samples)
	got, gotSt, err := estimateRobust(m, h, nil, RobustConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := estimateRobust(m, h, nil, RobustConfig{EM: EMConfig{KernelHalfWidth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotSt != wantSt {
		t.Fatalf("Robust{} on a tick-4 model: %v %+v; explicit kernel 4: %v %+v", got, gotSt, want, wantSt)
	}
	if fit, _ := (Robust{}).Fit(m, h, nil); !reflect.DeepEqual(fit.Probs, got) {
		t.Fatalf("the Robust{} estimator: %v, want %v", fit.Probs, got)
	}
	if gotSt.Trimmed != 3 {
		t.Fatalf("trimmed %d samples at tick 4, want the 3 outliers", gotSt.Trimmed)
	}
	if _, at8, _ := estimateRobust(m, h, nil, RobustConfig{EM: EMConfig{KernelHalfWidth: 8}}); at8.Trimmed != 2 {
		t.Fatalf("trimmed %d samples at a kernel of 8, want 2: the case cannot tell the tick from the fallback", at8.Trimmed)
	}
}

// The timer tick is decided once, on the model: no non-test code outside
// this package (and the benchmark module, which replicates the pipeline
// stage by stage) sets an EM kernel width by hand.
func TestKernelHalfWidthSetOnlyHere(t *testing.T) {
	root := filepath.Join("..", "..")
	skip := map[string]bool{filepath.Join(root, "internal", "tomography"): true, filepath.Join(root, "perfbench"): true}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] || (path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			var field ast.Expr
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				field = n.Key
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "KernelHalfWidth" {
						field = sel.Sel
					}
				}
			}
			if id, ok := field.(*ast.Ident); ok && id.Name == "KernelHalfWidth" {
				t.Errorf("%s sets KernelHalfWidth; leave it zero so the estimator fits at the model's tick", fset.Position(id.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files from %s", files, root)
	}
}
