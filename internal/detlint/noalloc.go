package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// NoAlloc verifies //detlint:noalloc annotations against the compiler's
// own escape analysis: when any annotated function exists, Run invokes
// `go build -gcflags=-m` on the annotated packages and parses the
// diagnostics. A heap allocation attributed inside an annotated
// function's body — including allocations from inlined callees, which
// the compiler reports at the call site — is a finding at the
// diagnostic's position, so hot-path regressions surface at lint time
// instead of bench time.
//
// Two diagnostic classes are not allocations and are filtered:
// constant strings "escaping" to the heap are static data, and
// allocations whose position falls inside a panic(...) argument list are
// failure-path only (a panic tears the run down anyway). An amortized
// allocation the annotation deliberately tolerates (a high-water-mark
// scratch grow) is suppressed at its line with //detlint:ignore noalloc.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //detlint:noalloc must show no heap allocation under -gcflags=-m",
	Run:  runNoAlloc,
}

// escapeDiag is one parsed allocation diagnostic.
type escapeDiag struct {
	line, col int
	msg       string
}

// escapeDiags indexes allocation diagnostics by absolute file path.
type escapeDiags struct {
	byFile map[string][]escapeDiag
}

// buildNoAllocFacts runs the compiler probe for every package containing
// a //detlint:noalloc annotation. A build failure is a load error (it
// means the module does not compile), propagated to Run's caller —
// mclint exits 2. With no annotations in the module the probe is
// skipped entirely.
func (m *Module) buildNoAllocFacts() error {
	if len(m.noalloc) == 0 {
		return nil
	}
	// One `go build` per package set; main packages are built separately
	// with -o to the null device so no binary lands in the module root.
	pkgSet := make(map[string]*Package)
	for _, a := range m.noalloc {
		pkgSet[a.pkg.ImportPath] = a.pkg
	}
	var rest, mains []string
	for path, pkg := range pkgSet {
		if pkg.Name == "main" {
			mains = append(mains, path)
		} else {
			rest = append(rest, path)
		}
	}
	sort.Strings(rest)
	sort.Strings(mains)
	m.escm = &escapeDiags{byFile: make(map[string][]escapeDiag)}
	if len(rest) > 0 {
		if err := m.escapeProbe(append([]string{"build", "-gcflags=-m"}, rest...)); err != nil {
			return err
		}
	}
	for _, main := range mains {
		if err := m.escapeProbe([]string{"build", "-gcflags=-m", "-o", os.DevNull, main}); err != nil {
			return err
		}
	}
	for _, diags := range m.escm.byFile {
		sort.Slice(diags, func(i, j int) bool {
			if diags[i].line != diags[j].line {
				return diags[i].line < diags[j].line
			}
			if diags[i].col != diags[j].col {
				return diags[i].col < diags[j].col
			}
			return diags[i].msg < diags[j].msg
		})
	}
	return nil
}

// escapeProbe runs one `go <args...>` in the module root and collects
// allocation diagnostics from its stderr. The go build cache replays
// compiler diagnostics on cache hits, so repeat lint runs stay fast.
func (m *Module) escapeProbe(args []string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = m.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("detlint: noalloc escape-analysis probe failed: go %s: %v\n%s",
			strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		file, l, c, msg, ok := parseDiagLine(line)
		if !ok || !isAllocDiag(msg) {
			continue
		}
		if !strings.HasPrefix(file, string(os.PathSeparator)) {
			file = m.Root + string(os.PathSeparator) + file
		}
		m.escm.byFile[file] = append(m.escm.byFile[file], escapeDiag{line: l, col: c, msg: msg})
	}
	return nil
}

// parseDiagLine splits `path/file.go:12:34: message`.
func parseDiagLine(s string) (file string, line, col int, msg string, ok bool) {
	rest := s
	i := strings.Index(rest, ".go:")
	if i < 0 {
		return
	}
	file = rest[:i+3]
	rest = rest[i+4:]
	parts := strings.SplitN(rest, ":", 3)
	if len(parts) != 3 {
		return
	}
	line, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return
	}
	return file, line, col, strings.TrimSpace(parts[2]), true
}

// isAllocDiag classifies a -m diagnostic as a heap allocation. Constant
// strings report "escapes to heap" but are static data, not an
// allocation.
func isAllocDiag(msg string) bool {
	if strings.HasPrefix(msg, "moved to heap: ") {
		return true
	}
	subj, found := strings.CutSuffix(msg, " escapes to heap")
	if !found {
		// -m=1 sometimes renders "x escapes to heap:" with trailing
		// detail on deeper verbosity; plain -m has no such suffix form,
		// so anything else is not an allocation report.
		return false
	}
	subj = strings.TrimSpace(subj)
	if strings.HasPrefix(subj, `"`) || strings.HasPrefix(subj, "`") {
		return false
	}
	return true
}

func runNoAlloc(p *Pass) {
	diags := p.Module.escm
	if diags == nil {
		return
	}
	fset := p.Module.Fset
	for _, a := range p.Module.noalloc {
		if a.pkg != p.Pkg {
			continue
		}
		start := fset.Position(a.decl.Body.Pos())
		end := fset.Position(a.decl.Body.End())
		panics := panicArgRanges(fset, a.decl.Body)
		for _, d := range diags.byFile[start.Filename] {
			at := diagPoint{d.line, d.col}
			if !at.within(point(start), point(end)) || inAnyRange(at, panics) {
				continue
			}
			p.reportAt(token.Position{Filename: start.Filename, Line: d.line, Column: d.col},
				"%s is annotated //detlint:noalloc but the compiler reports: %s", a.fn.Name(), d.msg)
		}
	}
}

// diagPoint is a (line, column) pair ordered lexicographically.
type diagPoint struct{ line, col int }

func point(p token.Position) diagPoint { return diagPoint{p.Line, p.Column} }

func (p diagPoint) before(q diagPoint) bool {
	return p.line < q.line || (p.line == q.line && p.col <= q.col)
}

func (p diagPoint) within(start, end diagPoint) bool {
	return start.before(p) && p.before(end)
}

type diagRange struct{ start, end diagPoint }

func inAnyRange(p diagPoint, ranges []diagRange) bool {
	for _, r := range ranges {
		if p.within(r.start, r.end) {
			return true
		}
	}
	return false
}

// panicArgRanges collects the source ranges of panic(...) calls so
// failure-path allocations (a formatted panic message) do not fail the
// gate: the run is being torn down when they happen.
func panicArgRanges(fset *token.FileSet, body *ast.BlockStmt) []diagRange {
	var out []diagRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			out = append(out, diagRange{point(fset.Position(call.Pos())), point(fset.Position(call.End()))})
		}
		return true
	})
	return out
}
