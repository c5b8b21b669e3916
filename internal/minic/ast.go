package minic

// File is a parsed MiniC compilation unit.
type File struct {
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// VarDecl declares a scalar or array variable.
//
//	var x int;  var x int = 3;  var buf[16] int;
type VarDecl struct {
	Pos      Pos
	Name     string
	ArrayLen int  // 0 for scalars
	Init     Expr // optional; globals require constant expressions
}

// FuncDecl declares a function.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []string
	HasRet bool // declared to return int
	Body   *BlockStmt
}

// Stmt is a statement node.
type Stmt interface{ StmtPos() Pos }

// BlockStmt is a { ... } sequence.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// DeclStmt is a local variable declaration.
type DeclStmt struct {
	Decl *VarDecl
}

// AssignStmt assigns to a scalar or array element.
type AssignStmt struct {
	Pos   Pos
	Name  string
	Index Expr // nil for scalar targets
	Value Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // nil when absent; else-if is a nested block
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body *BlockStmt
}

// ForStmt is for(init; cond; post) with assignment init/post.
type ForStmt struct {
	Pos  Pos
	Init *AssignStmt // optional
	Cond Expr        // optional (nil = true)
	Post *AssignStmt // optional
	Body *BlockStmt
}

// ReturnStmt returns from the function; Value nil for void returns.
type ReturnStmt struct {
	Pos   Pos
	Value Expr
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	Pos Pos
	X   Expr
}

// StmtPos implements Stmt: the statement's source position.
func (s *BlockStmt) StmtPos() Pos    { return s.Pos }
func (s *DeclStmt) StmtPos() Pos     { return s.Decl.Pos }
func (s *AssignStmt) StmtPos() Pos   { return s.Pos }
func (s *IfStmt) StmtPos() Pos       { return s.Pos }
func (s *WhileStmt) StmtPos() Pos    { return s.Pos }
func (s *ForStmt) StmtPos() Pos      { return s.Pos }
func (s *ReturnStmt) StmtPos() Pos   { return s.Pos }
func (s *BreakStmt) StmtPos() Pos    { return s.Pos }
func (s *ContinueStmt) StmtPos() Pos { return s.Pos }
func (s *ExprStmt) StmtPos() Pos     { return s.Pos }

// Expr is an expression node.
type Expr interface {
	exprNode()
	ExprPos() Pos
}

// NumLit is an integer literal.
type NumLit struct {
	Pos Pos
	Val int
}

// VarRef reads a scalar variable.
type VarRef struct {
	Pos  Pos
	Name string
}

// IndexExpr reads an array element.
type IndexExpr struct {
	Pos   Pos
	Name  string
	Index Expr
}

// BinExpr is a binary operation. Op is a token kind (Plus, AndAnd, ...).
type BinExpr struct {
	Pos  Pos
	Op   Kind
	L, R Expr
}

// UnExpr is a unary operation (Minus, Not, Tilde).
type UnExpr struct {
	Pos Pos
	Op  Kind
	X   Expr
}

// CallExpr calls a user function or builtin.
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

func (*NumLit) exprNode()    {}
func (*VarRef) exprNode()    {}
func (*IndexExpr) exprNode() {}
func (*BinExpr) exprNode()   {}
func (*UnExpr) exprNode()    {}
func (*CallExpr) exprNode()  {}

// ExprPos implements Expr.
func (e *NumLit) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *VarRef) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *IndexExpr) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *BinExpr) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *UnExpr) ExprPos() Pos { return e.Pos }

// ExprPos implements Expr.
func (e *CallExpr) ExprPos() Pos { return e.Pos }

// Builtins maps intrinsic names to their (arity, hasResult) signature.
var Builtins = map[string]struct {
	Arity  int
	HasRet bool
}{
	"sense": {0, true},  // read the ADC sensor
	"now":   {0, true},  // read the hardware timer tick
	"rand":  {0, true},  // read the entropy source
	"send":  {1, false}, // append a word to the radio buffer and transmit
	"led":   {1, false}, // set the LED state
	"debug": {1, false}, // write to the debug capture port
}
