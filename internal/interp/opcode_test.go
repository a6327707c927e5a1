package interp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// opcodeSwitchProblems checks a dispatch loop against its opcode table:
// every op* constant in f has a case in Machine.exec's `switch in.op`, and
// every case names a declared constant. An opcode the lowerer can emit but
// exec does not handle would otherwise surface only at run time, as the
// unknown-opcode error. A boundary marker (a constant whose value is another
// op* constant) is not an opcode and is exempt. It returns one line per
// violation, sorted.
func opcodeSwitchProblems(f *ast.File) []string {
	isOp := func(name string) bool { return len(name) > 2 && name[:2] == "op" && 'A' <= name[2] && name[2] <= 'Z' }
	declared, handled := map[string]bool{}, map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, n := range vs.Names {
					if !isOp(n.Name) {
						continue
					}
					if i < len(vs.Values) {
						if id, ok := vs.Values[i].(*ast.Ident); ok && isOp(id.Name) {
							continue // boundary marker
						}
					}
					declared[n.Name] = true
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name != "exec" || d.Recv == nil {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				if sel, ok := sw.Tag.(*ast.SelectorExpr); !ok || sel.Sel.Name != "op" {
					return true
				}
				for _, stmt := range sw.Body.List {
					for _, e := range stmt.(*ast.CaseClause).List {
						if id, ok := e.(*ast.Ident); ok {
							handled[id.Name] = true
						}
					}
				}
				return false
			})
		}
	}
	if len(declared) == 0 || len(handled) == 0 {
		return []string{fmt.Sprintf("found %d op* constants and %d exec cases", len(declared), len(handled))}
	}
	var out []string
	for op := range declared {
		if !handled[op] {
			out = append(out, fmt.Sprintf("opcode %s has no case in Machine.exec's switch in.op", op))
		}
	}
	for op := range handled {
		if !declared[op] {
			out = append(out, fmt.Sprintf("Machine.exec case %s names no declared op* constant", op))
		}
	}
	sort.Strings(out)
	return out
}

func parseOpcodeSource(t *testing.T, filename string, src any) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestExecHandlesEveryOpcode runs the opcode check on the real threaded.go.
func TestExecHandlesEveryOpcode(t *testing.T) {
	for _, p := range opcodeSwitchProblems(parseOpcodeSource(t, "threaded.go", nil)) {
		t.Errorf("threaded.go: %s", p)
	}
}

// TestOpcodeCheckClean pins that a fully handled opcode set passes, with a
// multi-name case and a boundary-marker alias that has no case of its own.
func TestOpcodeCheckClean(t *testing.T) {
	f := parseOpcodeSource(t, "clean.go", `package interp
const (
	opA uint8 = iota
	opB
	opC
)
const opColdMark = opB
type Machine struct{}
type instr struct{ op uint8 }
func (m *Machine) exec() error {
	var in instr
	switch in.op {
	case opA:
	case opB, opC:
	}
	return nil
}
`)
	if problems := opcodeSwitchProblems(f); len(problems) != 0 {
		t.Fatalf("clean source flagged: %v", problems)
	}
}

// TestOpcodeCheckViolations pins both directions: an opcode with no case,
// and a case naming a constant that is not declared.
func TestOpcodeCheckViolations(t *testing.T) {
	f := parseOpcodeSource(t, "violations.go", `package interp
const (
	opA uint8 = iota
	opB
	opUnhandled
)
type Machine struct{}
type instr struct{ op uint8 }
func (m *Machine) exec() error {
	var in instr
	switch in.op {
	case opA:
	case opB:
	case opDeleted:
	}
	return nil
}
`)
	got := strings.Join(opcodeSwitchProblems(f), "\n")
	want := "Machine.exec case opDeleted names no declared op* constant\n" +
		"opcode opUnhandled has no case in Machine.exec's switch in.op"
	if got != want {
		t.Errorf("violations:\n%s\nwant:\n%s", got, want)
	}
}
