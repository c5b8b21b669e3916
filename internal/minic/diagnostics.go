package minic

// Diagnostic is a non-fatal finding from semantic analysis. Errors stop
// the compiler; diagnostics are advice the front end collects alongside a
// successful (or failed) check, for tools like ctlint to surface.
type Diagnostic struct {
	Pos  Pos
	Code string // stable machine-readable kind, e.g. "unused-var"
	Msg  string
}
