package repro

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// allowlistFile names the declarations under internal/ that stay although
// nothing reads or links them, one per line with its reason. It is shared
// with scripts/reachable.sh, which checks the function lines against the
// linked binaries; this file's test checks every other line.
const allowlistFile = "scripts/reachable.allow"

// TestEveryDeclarationIsRead is the reachability gate for state: every
// struct field, const, var and type declared in a non-test file under
// internal/ must be read by non-test code of the module (cmd/, examples/,
// pkg/, internal/, the root package) or of bench/, or be allowlisted.
// A composite-literal key and an assignment target are writes, and a use
// inside the declaration itself does not count.
func TestEveryDeclarationIsRead(t *testing.T) {
	allow, err := os.ReadFile(allowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unreadDeclarations(".", string(allow))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) > 0 {
		t.Logf("%d problems; delete what nothing reads, with its writes, or allowlist it in %s with its reason", len(problems), allowlistFile)
	}
}

// TestUnreadDeclarationsFixture runs the gate over the fixture module in
// testdata/reachable with different allowlists.
func TestUnreadDeclarationsFixture(t *testing.T) {
	unread := []string{
		"internal/a/a.go:7: a.unreadConst: const never read",
		"internal/a/a.go:10: a.unreadVar: var never read",
		"internal/a/a.go:13: a.unreadType: type never read",
		"internal/a/a.go:16: a.list: type never read",
		"internal/a/a.go:16: a.list.next: field never read",
		"internal/a/a.go:23: a.T.Unread: field never read",
		"internal/a/a.go:24: a.T.KeyOnly: field never read",
		"internal/a/a.go:25: a.T.Assigned: field never read",
		"internal/a/a.go:31: a.Msg.Wire: field never read",
	}
	// except is unread without the line naming decl, plus more lines.
	except := func(decl string, more ...string) []string {
		var out []string
		for _, u := range unread {
			if !strings.Contains(u, " "+decl+": ") {
				out = append(out, u)
			}
		}
		return append(out, more...)
	}
	for _, tc := range []struct {
		name, allow string
		want        []string
	}{
		{"no allowlist", "", unread},
		{"wire field allowlisted", "a.Msg.Wire wire  json.Marshal reads it", except("a.Msg.Wire")},
		{"function and test lines", "a.T.Unread test  a test reads it\na.Helper bench  bench/ calls it", except("a.T.Unread")},
		{"read declaration allowlisted", "a.T.Read test  stale", except("", "allowlisted but read (drop the line): a.T.Read")},
		{"undeclared name allowlisted", "a.Gone bench  deleted", except("", "allowlisted but not declared (drop the line): a.Gone")},
		{"no reason", "a.T.Unread api  the facade", except("a.T.Unread", "allowlist line without a reason (bench, test or wire): a.T.Unread api  the facade")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := unreadDeclarations("testdata/reachable", tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// The standard library is type-checked from source once per test binary
// and shared by every run of the gate.
var (
	gateFset = token.NewFileSet()
	stdlib   = importer.ForCompiler(gateFset, "source", nil)
)

// declaration is one candidate of the gate: a field, const, var or type
// declared at package level under internal/.
type declaration struct {
	name, kind string
	pos        token.Position
	span       ast.Node // uses inside it are the declaration's own
	read       bool
}

// unreadDeclarations type-checks every non-test package under root (a
// module root; testdata and dot directories skipped) and returns, sorted,
// the declarations under root/internal that nothing reads and the
// allowlist does not name, followed by the allowlist's own faults.
func unreadDeclarations(root, allowlist string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	c := &moduleChecker{
		root: root, mod: mod,
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = c.Import(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		return nil, err
	}

	decls := map[types.Object]*declaration{}
	declared := map[string]*declaration{} // by name, functions included
	for _, f := range c.files {
		rel, _ := filepath.Rel(root, gateFset.File(f.Pos()).Name())
		if !strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			continue
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(filepath.ToSlash(rel), "internal/")))
		add := func(id *ast.Ident, name, kind string, span ast.Node) {
			if id.Name == "_" {
				return
			}
			p := gateFset.Position(id.Pos())
			p.Filename = filepath.ToSlash(rel)
			d := &declaration{name: pkg + "." + name, kind: kind, pos: p, span: span}
			if f, ok := span.(*ast.Field); ok && f.Tag != nil {
				// A json tag puts the field on the wire: encoding/json
				// reads it by reflection.
				tag, ok := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Lookup("json")
				d.read = ok && tag != "-"
			}
			declared[d.name] = d
			if kind != "func" {
				decls[c.info.Defs[id]] = d
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv != nil {
					name = receiverName(decl.Recv.List[0].Type) + "." + name
				}
				add(decl.Name, name, "func", decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name, "type", spec)
						structFields(spec.Type, spec.Name.Name, add)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name, decl.Tok.String(), spec)
							if spec.Type != nil {
								structFields(spec.Type, id.Name, add)
							}
						}
					}
				}
			}
		}
	}

	// Identifiers that do not read what they name: assignment targets,
	// composite-literal keys (writes when they name a field) and method
	// receivers (part of declaring the method, not a use of the type).
	writes := map[*ast.Ident]bool{}
	keys := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			writes[e] = true
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		}
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					keys[id] = true
				}
			case *ast.FuncDecl:
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							writes[id] = true
						}
						return true
					})
				}
			}
			return true
		})
	}
	for id, obj := range c.info.Uses {
		if v, ok := obj.(*types.Var); ok {
			obj = v.Origin()
		}
		d := decls[obj]
		if d == nil || d.read || writes[id] || keys[id] && d.kind == "field" {
			continue
		}
		if id.Pos() >= d.span.Pos() && id.Pos() < d.span.End() {
			continue
		}
		d.read = true
	}

	allowed := map[string]bool{}
	var problems, lineProblems []string
	sc := bufio.NewScanner(strings.NewReader(allowlist))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		allowed[f[0]] = true
		d := declared[f[0]]
		switch {
		case len(f) < 2 || f[1] != "bench" && f[1] != "test" && f[1] != "wire":
			lineProblems = append(lineProblems, "allowlist line without a reason (bench, test or wire): "+sc.Text())
		case d == nil:
			lineProblems = append(lineProblems, "allowlisted but not declared (drop the line): "+f[0])
		case d.read:
			lineProblems = append(lineProblems, "allowlisted but read (drop the line): "+f[0])
		}
	}
	var unread []*declaration
	for _, d := range decls {
		if !d.read && !allowed[d.name] {
			unread = append(unread, d)
		}
	}
	sort.Slice(unread, func(i, j int) bool {
		a, b := unread[i].pos, unread[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	for _, d := range unread {
		problems = append(problems, fmt.Sprintf("%s:%d: %s: %s never read", d.pos.Filename, d.pos.Line, d.name, d.kind))
	}
	return append(problems, lineProblems...), nil
}

// structFields declares the named fields of every struct type inside e,
// as prefix.Field (prefix.Outer.Inner for a nested struct). Embedded
// fields are not candidates: they lend their methods to the struct's
// method set, which interface conversions use without naming them.
func structFields(e ast.Expr, prefix string, add func(*ast.Ident, string, string, ast.Node)) {
	ast.Inspect(e, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				add(id, prefix+"."+id.Name, "field", field)
			}
			if len(field.Names) > 0 {
				structFields(field.Type, prefix+"."+field.Names[0].Name, add)
			}
		}
		return false
	})
}

// receiverName is the type name of a method receiver: T for T, *T, T[P].
func receiverName(e ast.Expr) string {
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
			return ""
		}
	}
}

func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

// moduleChecker type-checks the module's packages from source into one
// shared types.Info; the standard library comes from stdlib.
type moduleChecker struct {
	root, mod string
	pkgs      map[string]*types.Package
	info      *types.Info
	files     []*ast.File
}

func (c *moduleChecker) Import(path string) (*types.Package, error) {
	if path != c.mod && !strings.HasPrefix(path, c.mod+"/") {
		return stdlib.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(c.root, strings.TrimPrefix(path, c.mod))
	bp, err := build.ImportDir(dir, 0)
	if none := (*build.NoGoError)(nil); errors.As(err, &none) {
		c.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(gateFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: c}).Check(path, gateFset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	c.files = append(c.files, files...)
	return p, nil
}
