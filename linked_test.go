package smartstore_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFunctionIsLinked fails on any function or method, outside
// main packages and test files, that no program of the repository
// links: every main package and the benchmark module are built with
// inlining off, and their symbol tables are the set of linked code.
// testdata/unlinked.allow names the few exceptions, each with a reason;
// an entry that is linked or no longer declared fails too, so the list
// only shrinks. Reflection could reach code without a symbol reference,
// and the repository does not call methods through it.
func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	var pkgs [][]string // name, import path, dir, space-separated files
	var mains []string
	list := goOut(t, ".", "list", "-f", "{{.Name}}\t{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Split(line, "\t")
		if f[0] == "main" {
			mains = append(mains, f[1])
		} else {
			pkgs = append(pkgs, f)
		}
	}
	goOut(t, ".", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	goOut(t, "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	linked := map[string]bool{}
	progs, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		for _, line := range strings.Split(goOut(t, ".", "tool", "nm", filepath.Join(bin, p.Name())), "\n") {
			// "<addr> <type> <name>", where the name of a generic
			// instantiated over a struct or func type holds spaces.
			if f := strings.SplitN(strings.TrimSpace(line), " ", 3); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolKey(f[2])] = true
			}
		}
	}

	allowed := readAllowlist(t, "testdata/unlinked.allow")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range pkgs {
		for _, name := range strings.Fields(f[3]) {
			path := filepath.Join(f[2], name)
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" {
					continue
				}
				key := f[1] + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f[1] + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				declared[key] = true
				if !linked[key] && allowed[key] == "" {
					rel, _ := filepath.Rel(wd, path)
					t.Errorf("%s:%d %s is linked into no program: delete it, or give it a caller", rel, fset.Position(fn.Pos()).Line, key)
				}
			}
		}
	}
	for key := range allowed {
		switch {
		case !declared[key]:
			t.Errorf("testdata/unlinked.allow: %s is no longer declared; drop its entry", key)
		case linked[key]:
			t.Errorf("testdata/unlinked.allow: %s is linked now; drop its entry", key)
		}
	}
}

// TestDependencyFences keeps the service and the paper's reproduction
// apart: the serving daemons depend on none of the reproduction-only
// packages (the paper-era baselines, the experiment drivers and the
// §4.4 version chains), and smartbench, the paper's tables-and-figures
// runner, depends on none of the serving stack — the service is
// measured by bench/.
func TestDependencyFences(t *testing.T) {
	fences := []struct {
		programs []string
		banned   *regexp.Regexp
	}{
		{[]string{"./cmd/smartstored", "./cmd/smartgate"},
			regexp.MustCompile(`^repro/internal/(baseline|btree|kmeans|core|experiments|eval|version)$`)},
		{[]string{"./cmd/smartbench"},
			regexp.MustCompile(`^repro(/internal/(server|client|gateway|wire|wal|repl|engine))?$`)},
	}
	for _, f := range fences {
		deps := goOut(t, ".", append([]string{"list", "-deps"}, f.programs...)...)
		for _, dep := range strings.Fields(deps) {
			if f.banned.MatchString(dep) {
				t.Errorf("go list -deps %s lists %s", strings.Join(f.programs, " "), dep)
			}
		}
	}
}

// goOut runs the go command in dir and returns its standard output.
func goOut(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// symbolKey maps a linker symbol such as "repro/x.(*T[go.shape.int]).M"
// to the declaration key "repro/x.T.M".
func symbolKey(sym string) string {
	for strings.Contains(sym, "[") {
		next := typeArgs.ReplaceAllString(sym, "")
		if next == sym {
			break
		}
		sym = next
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(sym)
}

// recvName is the base type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "" // no symbol matches, so the method is reported
		}
	}
}

// readAllowlist reads "<key> <reason>" lines; '#' starts a comment.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{}
	for i, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, i+1, key)
			reason = "?"
		}
		allowed[key] = reason
	}
	return allowed
}
