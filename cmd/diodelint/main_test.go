package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a source file into dir, creating it as a fake package root.
func write(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dispatchTree lays out a fake internal/ tree: dir/dispatch holds the
// dispatch sources, dir/core/options.go the options declaration. It returns
// the dispatch directory, the one checkFlipTables is pointed at.
func dispatchTree(t *testing.T, dispatchSrc, optionsSrc, cacheTestSrc string) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "dispatch")
	for _, d := range []string{dir, filepath.Join(root, "core")} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(t, dir, "dispatch.go", dispatchSrc)
	write(t, dir, "cache_test.go", cacheTestSrc)
	write(t, filepath.Join(root, "core"), "options.go", optionsSrc)
	return dir
}

const dispatchSrc = `package dispatch
import "example/core"
type Options = core.Settings
type Job struct {
	ID   int
	Site string
}
`

const optionsSrc = `package core
type Settings struct {
	Seed int
	Fuel int
}
type Options struct {
	Seed int
	Settings
	Progress func(int)
}
`

const cacheTestSrc = `package dispatch
var optionsKeyFlips = map[string]func(*Options){
	"Seed": func(o *Options) { o.Seed++ },
	"Fuel": func(o *Options) { o.Fuel++ },
}
var jobKeyFlips = map[string]func(*Job){
	"Site": func(j *Job) { j.Site = "x" },
}
var jobKeyExcluded = map[string]func(*Job){
	"ID": func(j *Job) { j.ID++ },
}
`

// TestFlipTableCheckClean pins that a consistent field/table pair passes,
// with the options fields read from the core declaration.
func TestFlipTableCheckClean(t *testing.T) {
	dir := dispatchTree(t, dispatchSrc, optionsSrc, cacheTestSrc)
	if problems := checkFlipTables(dir); len(problems) != 0 {
		t.Fatalf("clean package flagged: %v", problems)
	}
}

// TestFlipTableCheckViolations pins the three failure modes: an options
// field with no table entry, a stale table key, and a Job field in both
// tables.
func TestFlipTableCheckViolations(t *testing.T) {
	dir := dispatchTree(t, dispatchSrc, `package core
type Settings struct {
	Seed    int
	Orphan  int
}
`, `package dispatch
var optionsKeyFlips = map[string]func(*Options){
	"Seed":    func(o *Options) { o.Seed++ },
	"Renamed": func(o *Options) {},
}
var jobKeyFlips = map[string]func(*Job){
	"Site": func(j *Job) { j.Site = "x" },
	"ID":   func(j *Job) { j.ID++ },
}
var jobKeyExcluded = map[string]func(*Job){
	"ID": func(j *Job) { j.ID++ },
}
`)
	problems := strings.Join(checkFlipTables(dir), "\n")
	for _, want := range []string{
		"Settings.Orphan has no optionsKeyFlips entry",
		`optionsKeyFlips["Renamed"] names no Settings field`,
		"Job.ID is in both jobKeyFlips and jobKeyExcluded",
	} {
		if !strings.Contains(problems, want) {
			t.Errorf("missing violation %q in:\n%s", want, problems)
		}
	}
}

const threadedSrc = `package interp
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
`

// TestOpcodeCheckClean pins that a fully handled opcode set passes, with
// boundary-marker aliases exempt.
func TestOpcodeCheckClean(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "threaded.go", threadedSrc)
	if problems := checkOpcodeSwitch(dir); len(problems) != 0 {
		t.Fatalf("clean package flagged: %v", problems)
	}
}

// TestOpcodeCheckViolations pins both directions: an unhandled opcode and a
// case naming a constant that does not exist.
func TestOpcodeCheckViolations(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "threaded.go", `package interp
const (
	opA uint8 = iota
	opB
	opGhostless
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
	problems := strings.Join(checkOpcodeSwitch(dir), "\n")
	for _, want := range []string{
		"opcode opGhostless has no case",
		"case opDeleted matches no declared op* constant",
	} {
		if !strings.Contains(problems, want) {
			t.Errorf("missing violation %q in:\n%s", want, problems)
		}
	}
}

// TestRealPackagesPass runs the linter against the actual repo packages —
// the same invocation `make diodelint` and CI use.
func TestRealPackagesPass(t *testing.T) {
	for dir, check := range map[string]func(string) []string{
		"../../internal/dispatch": checkFlipTables,
		"../../internal/interp":   checkOpcodeSwitch,
	} {
		if problems := check(dir); len(problems) != 0 {
			t.Errorf("%s: %v", dir, problems)
		}
	}
}
