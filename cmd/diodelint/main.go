// Command diodelint is the repo-specific structural linter. It enforces two
// exhaustiveness invariants that ordinary Go tooling cannot see, using only
// go/parser and go/ast (no third-party analysis framework):
//
//  1. Cache-key review (internal/dispatch): every field of the job options
//     record and of dispatch.Job must be accounted for in the cache_test.go
//     flip tables — optionsKeyFlips for the options, jobKeyFlips or
//     jobKeyExcluded for Job. The options record is declared once, as
//     core.Settings in the sibling package's options.go (dispatch.Options
//     names it), so that is where its fields are read. Adding a field
//     without deciding whether it changes JobKey is the bug class that
//     silently serves stale cached results; the runtime test checks the
//     tables against reflect, and this linter catches the same drift
//     statically, before tests run.
//
//  2. Opcode dispatch (internal/interp): every op* opcode constant declared
//     in threaded.go must appear as a case in Machine.exec's `switch in.op`
//     dispatch loop. An opcode the compiler can emit but the loop does not
//     handle falls through to the unknown-opcode error at runtime; this
//     catches it at lint time. Boundary markers (consts whose value is just
//     an alias of another op* constant) are exempt.
//
// Usage:
//
//	diodelint [package-dir ...]
//
// With no arguments it checks ./internal/dispatch and ./internal/interp.
// For each directory it applies whichever checks its files support, prints
// one line per violation, and exits non-zero if any check fails. The
// cache-key check of a dispatch directory also reads ../core/options.go.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) == 0 {
		args = []string{"./internal/dispatch", "./internal/interp"}
	}
	var problems []string
	checked := 0
	for _, dir := range args {
		if fileExists(filepath.Join(dir, "cache_test.go")) && fileExists(filepath.Join(dir, "dispatch.go")) {
			checked++
			problems = append(problems, checkFlipTables(dir)...)
		}
		if fileExists(filepath.Join(dir, "threaded.go")) {
			checked++
			problems = append(problems, checkOpcodeSwitch(dir)...)
		}
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "diodelint: no checkable files under", args)
		return 2
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		return 1
	}
	fmt.Printf("diodelint: ok (%d checks)\n", checked)
	return 0
}

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}

func parse(path string) (*ast.File, error) {
	return parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
}

// checkFlipTables enforces invariant 1: struct fields of Settings in
// ../core/options.go and of Job in dispatch.go versus the string keys of the
// flip-table map literals in cache_test.go.
func checkFlipTables(dir string) []string {
	src := filepath.Join(dir, "dispatch.go")
	opt := filepath.Join(dir, "..", "core", "options.go")
	tst := filepath.Join(dir, "cache_test.go")
	files := make([]*ast.File, 3)
	for i, path := range []string{src, opt, tst} {
		f, err := parse(path)
		if err != nil {
			return []string{fmt.Sprintf("%s: %v", path, err)}
		}
		files[i] = f
	}
	srcF, optF, tstF := files[0], files[1], files[2]
	options := structFields(optF, "Settings")
	if options == nil {
		return []string{fmt.Sprintf("%s: Settings struct not found", opt)}
	}
	job := structFields(srcF, "Job")
	if job == nil {
		return []string{fmt.Sprintf("%s: Job struct not found", src)}
	}
	optFlips := mapKeys(tstF, "optionsKeyFlips")
	jobFlips := mapKeys(tstF, "jobKeyFlips")
	jobExcluded := mapKeys(tstF, "jobKeyExcluded")
	if optFlips == nil || jobFlips == nil || jobExcluded == nil {
		return []string{fmt.Sprintf("%s: flip tables (optionsKeyFlips/jobKeyFlips/jobKeyExcluded) not found", tst)}
	}

	var out []string
	for _, f := range sorted(options) {
		if !optFlips[f] {
			out = append(out, fmt.Sprintf("%s: Settings.%s has no optionsKeyFlips entry in %s (new options fields need a cache-key flip decision)", opt, f, tst))
		}
	}
	for _, f := range sorted(job) {
		switch {
		case jobFlips[f] && jobExcluded[f]:
			out = append(out, fmt.Sprintf("%s: Job.%s is in both jobKeyFlips and jobKeyExcluded", tst, f))
		case !jobFlips[f] && !jobExcluded[f]:
			out = append(out, fmt.Sprintf("%s: Job.%s is in neither jobKeyFlips nor jobKeyExcluded in %s (new Job fields need a cache-key flip decision)", src, f, tst))
		}
	}
	// Stale entries: a renamed or deleted field leaves a table key that the
	// runtime reflect walk would no longer visit.
	for _, k := range sorted(optFlips) {
		if !options[k] {
			out = append(out, fmt.Sprintf("%s: optionsKeyFlips[%q] names no Settings field", tst, k))
		}
	}
	for _, k := range sorted(jobFlips) {
		if !job[k] {
			out = append(out, fmt.Sprintf("%s: jobKeyFlips[%q] names no Job field", tst, k))
		}
	}
	for _, k := range sorted(jobExcluded) {
		if !job[k] {
			out = append(out, fmt.Sprintf("%s: jobKeyExcluded[%q] names no Job field", tst, k))
		}
	}
	return out
}

// checkOpcodeSwitch enforces invariant 2: op* constants in threaded.go
// versus the case clauses of Machine.exec's `switch in.op`.
func checkOpcodeSwitch(dir string) []string {
	src := filepath.Join(dir, "threaded.go")
	f, err := parse(src)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", src, err)}
	}
	opcodes := opcodeConsts(f)
	if len(opcodes) == 0 {
		return []string{fmt.Sprintf("%s: no op* opcode constants found", src)}
	}
	handled := execCases(f)
	if handled == nil {
		return []string{fmt.Sprintf("%s: Machine.exec `switch in.op` not found", src)}
	}
	var out []string
	for _, op := range sorted(opcodes) {
		if !handled[op] {
			out = append(out, fmt.Sprintf("%s: opcode %s has no case in Machine.exec's switch in.op (the dispatch loop would hit the unknown-opcode path)", src, op))
		}
	}
	for _, op := range sorted(handled) {
		if !opcodes[op] {
			out = append(out, fmt.Sprintf("%s: Machine.exec case %s matches no declared op* constant", src, op))
		}
	}
	return out
}

// structFields returns the named field set of a struct type declaration.
func structFields(f *ast.File, name string) map[string]bool {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || ts.Name.Name != name {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return nil
			}
			fields := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, n := range fld.Names {
					fields[n.Name] = true
				}
			}
			return fields
		}
	}
	return nil
}

// mapKeys returns the string keys of a package-level map composite literal.
func mapKeys(f *ast.File, varName string) map[string]bool {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, n := range vs.Names {
				if n.Name != varName || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					return nil
				}
				keys := make(map[string]bool)
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						keys[lit.Value[1:len(lit.Value)-1]] = true
					}
				}
				return keys
			}
		}
	}
	return nil
}

// opcodeConsts returns every op*-named constant, excluding boundary markers
// whose value is a bare alias of another op* constant.
func opcodeConsts(f *ast.File) map[string]bool {
	ops := make(map[string]bool)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, n := range vs.Names {
				if len(n.Name) < 3 || n.Name[:2] != "op" || n.Name[2] < 'A' || n.Name[2] > 'Z' {
					continue
				}
				if i < len(vs.Values) {
					if id, ok := vs.Values[i].(*ast.Ident); ok && len(id.Name) > 2 && id.Name[:2] == "op" {
						continue // boundary marker aliasing a real opcode
					}
				}
				ops[n.Name] = true
			}
		}
	}
	return ops
}

// execCases returns the op* identifiers appearing as case expressions in
// the `switch in.op` statement inside Machine.exec, or nil if not found.
func execCases(f *ast.File) map[string]bool {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "exec" || fd.Recv == nil {
			continue
		}
		var cases map[string]bool
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || cases != nil {
				return cases == nil
			}
			sel, ok := sw.Tag.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "op" {
				return true
			}
			cases = make(map[string]bool)
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if id, ok := e.(*ast.Ident); ok {
						cases[id.Name] = true
					}
				}
			}
			return false
		})
		if cases != nil {
			return cases
		}
	}
	return nil
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
