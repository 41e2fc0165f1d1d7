package energyroofline

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose fenced snippets and relative links
// the doc checks verify. Paths are module-root relative.
var docFiles = []string{
	"README.md",
	"docs/MODEL.md",
	"docs/MODELS.md",
	"docs/SERVER.md",
	"docs/ARCHITECTURE.md",
	"docs/OBSERVABILITY.md",
	"docs/PERFORMANCE.md",
	"docs/CLUSTER.md",
	"docs/DVFS.md",
}

// fence is one fenced code block from a markdown file.
type fence struct {
	lang  string
	text  string
	lineN int // 1-based line of the opening ```
}

// fences extracts the fenced code blocks of a markdown file.
func fences(t *testing.T, path string) []fence {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []fence
	var cur *fence
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if cur == nil {
				cur = &fence{lang: strings.TrimPrefix(trimmed, "```"), lineN: i + 1}
			} else {
				out = append(out, *cur)
				cur = nil
			}
			continue
		}
		if cur != nil {
			cur.text += line + "\n"
		}
	}
	if cur != nil {
		t.Fatalf("%s: unclosed code fence opened at line %d", path, cur.lineN)
	}
	return out
}

// definedFlags scans the non-test Go sources of one directory for flag
// definitions (flag.String, flag.IntVar, …) and returns the flag names.
func definedFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	// Two shapes: flag.String("name", …) and flag.IntVar(&v, "name", …).
	direct := regexp.MustCompile(`flag\.(?:String|Bool|Int64|Int|Uint64|Uint|Float64|Duration)\(\s*"([^"]+)"`)
	viaVar := regexp.MustCompile(`flag\.[A-Za-z0-9]+Var\([^,]+,\s*"([^"]+)"`)
	flags := map[string]bool{}
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range matches {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range []*regexp.Regexp{direct, viaVar} {
			for _, m := range re.FindAllStringSubmatch(string(data), -1) {
				flags[m[1]] = true
			}
		}
	}
	return flags
}

// shellCommands splits a shell fence into logical commands: comments
// stripped, backslash continuations joined, trailing "# ..." comments
// and backgrounding "&" removed.
func shellCommands(block string) []string {
	var cmds []string
	var cont string
	for _, line := range strings.Split(block, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, "  #"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if strings.HasSuffix(line, "\\") {
			cont += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = cont + line
		cont = ""
		line = strings.TrimSuffix(strings.TrimSpace(line), " &")
		cmds = append(cmds, line)
	}
	return cmds
}

// TestDocCommandsExist verifies every `go run <path> [flags]` command
// in the documentation's shell snippets, including each `go run` stage
// of a pipe: the target package directory exists, and each -flag the
// docs pass is actually defined by that binary. Documentation that
// names a command or flag that does not ship fails here.
func TestDocCommandsExist(t *testing.T) {
	root := mustModuleRoot(t)
	checked := 0
	for _, doc := range docFiles {
		for _, f := range fences(t, filepath.Join(root, doc)) {
			if f.lang != "sh" && f.lang != "bash" {
				continue
			}
			for _, cmd := range shellCommands(f.text) {
				for _, stage := range strings.Split(cmd, "|") {
					fields := strings.Fields(stage)
					if len(fields) < 3 || fields[0] != "go" || fields[1] != "run" {
						continue
					}
					target := fields[2]
					dir := filepath.Join(root, filepath.FromSlash(target))
					if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
						t.Errorf("%s (fence at line %d): `%s` targets nonexistent package %s",
							doc, f.lineN, cmd, target)
						continue
					}
					flags := definedFlags(t, dir)
					for _, tok := range fields[3:] {
						if !strings.HasPrefix(tok, "-") || tok == "-" {
							continue
						}
						name := strings.TrimLeft(tok, "-")
						if i := strings.IndexByte(name, '='); i >= 0 {
							name = name[:i]
						}
						if !flags[name] {
							t.Errorf("%s (fence at line %d): `%s` passes -%s, which %s does not define",
								doc, f.lineN, cmd, name, target)
						}
					}
					checked++
				}
			}
		}
	}
	if checked < 10 {
		t.Errorf("only %d `go run` commands found across the docs; extraction is likely broken", checked)
	}
}

// TestDocGoSnippetsParse wraps each fenced Go snippet into a synthetic
// file and parses it, so documented Go code cannot rot into syntax
// errors. Snippets without a package clause get one; bare statement
// snippets are wrapped in a function body.
func TestDocGoSnippetsParse(t *testing.T) {
	root := mustModuleRoot(t)
	parsed := 0
	for _, doc := range docFiles {
		for _, f := range fences(t, filepath.Join(root, doc)) {
			if f.lang != "go" {
				continue
			}
			src := f.text
			if !strings.Contains(src, "package ") {
				// Hoist import lines; wrap the rest as a function body.
				var imports, body []string
				for _, line := range strings.Split(src, "\n") {
					if strings.HasPrefix(strings.TrimSpace(line), "import ") {
						imports = append(imports, line)
					} else {
						body = append(body, line)
					}
				}
				src = "package snippet\n" + strings.Join(imports, "\n") +
					"\nfunc _() {\n" + strings.Join(body, "\n") + "\n}\n"
			}
			fset := token.NewFileSet()
			if _, err := parser.ParseFile(fset, doc, src, 0); err != nil {
				t.Errorf("%s: Go snippet at line %d does not parse: %v", doc, f.lineN, err)
			}
			parsed++
		}
	}
	if parsed == 0 {
		t.Error("no Go snippets found across the docs; extraction is likely broken")
	}
}

// corebenchScenarioNames parses the scenario names out of
// BenchmarkCore's b.Run calls, so doc checks track the real list.
func corebenchScenarioNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "corebench_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`b\.Run\("([a-z0-9_]+)"`)
	names := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatal("no scenario names parsed from corebench_test.go; extraction is likely broken")
	}
	return names
}

// TestDocCorebenchScenariosExist verifies that every documented
// `-bench BenchmarkCore/<name>` pattern names a scenario BenchmarkCore
// actually runs, and that docs/PERFORMANCE.md covers every scenario.
func TestDocCorebenchScenariosExist(t *testing.T) {
	root := mustModuleRoot(t)
	names := corebenchScenarioNames(t, root)
	pattern := regexp.MustCompile(`-bench[ =]['"]?BenchmarkCore/([^'"\s]+)`)
	checked := 0
	for _, doc := range docFiles {
		for _, f := range fences(t, filepath.Join(root, doc)) {
			if f.lang != "sh" && f.lang != "bash" {
				continue
			}
			for _, m := range pattern.FindAllStringSubmatch(f.text, -1) {
				for _, name := range strings.Split(strings.Trim(m[1], "^$()"), "|") {
					checked++
					if !names[strings.Trim(name, "^$")] {
						t.Errorf("%s (fence at line %d): `%s` names unknown BenchmarkCore scenario %q",
							doc, f.lineN, m[0], name)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no -bench BenchmarkCore/<name> patterns found in the docs; extraction is likely broken")
	}
	perf, err := os.ReadFile(filepath.Join(root, "docs", "PERFORMANCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range names {
		if !strings.Contains(string(perf), "`"+name+"`") {
			t.Errorf("docs/PERFORMANCE.md does not document BenchmarkCore scenario `%s`", name)
		}
	}
}

// TestDocServerEndpointsDocumented parses every route registration
// (mux.HandleFunc("METHOD /path", …)) out of internal/server's non-test
// sources and requires each path to appear in docs/SERVER.md, so a new
// endpoint cannot ship undocumented.
func TestDocServerEndpointsDocumented(t *testing.T) {
	root := mustModuleRoot(t)
	re := regexp.MustCompile(`mux\.HandleFunc\("(?:GET|POST|PUT|DELETE) ([^"]+)"`)
	routes := map[string]bool{}
	matches, err := filepath.Glob(filepath.Join(root, "internal", "server", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range matches {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			routes[m[1]] = true
		}
	}
	if len(routes) < 5 {
		t.Fatalf("only %d routes parsed from internal/server; extraction is likely broken", len(routes))
	}
	doc, err := os.ReadFile(filepath.Join(root, "docs", "SERVER.md"))
	if err != nil {
		t.Fatal(err)
	}
	for route := range routes {
		if strings.Contains(string(doc), route) {
			continue
		}
		// A family of sub-handlers (the /debug/pprof/ profilers) is
		// documented by its mount point; accept any documented ancestor
		// directory.
		covered := false
		for dir := route; strings.Count(dir, "/") > 1; {
			dir = dir[:strings.LastIndex(strings.TrimSuffix(dir, "/"), "/")+1]
			if strings.Contains(string(doc), dir) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("docs/SERVER.md does not document the %s endpoint", route)
		}
	}
}

// modelNames parses the registered EnergyModel names out of
// internal/model's const block, so doc checks track the real registry.
func modelNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "internal", "model", "model.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`\w+Name = "([a-z0-9_]+)"`)
	names := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		names[m[1]] = true
	}
	if len(names) < 2 {
		t.Fatalf("only %d model names parsed from internal/model/model.go; extraction is likely broken", len(names))
	}
	return names
}

// TestDocModelNamesDocumented requires every registered EnergyModel
// name to be documented — backticked — in docs/MODELS.md, and the
// /v1/models endpoint plus the model request field to be covered in
// docs/SERVER.md, so a new model cannot ship undocumented (the pattern
// of TestDocServerEndpointsDocumented).
func TestDocModelNamesDocumented(t *testing.T) {
	root := mustModuleRoot(t)
	names := modelNames(t, root)
	models, err := os.ReadFile(filepath.Join(root, "docs", "MODELS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range names {
		if !strings.Contains(string(models), "`"+name+"`") {
			t.Errorf("docs/MODELS.md does not document the registered model `%s`", name)
		}
	}
	server, err := os.ReadFile(filepath.Join(root, "docs", "SERVER.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"/v1/models", `"model"`} {
		if !strings.Contains(string(server), needle) {
			t.Errorf("docs/SERVER.md does not mention %s", needle)
		}
	}
}

// dvfsCatalogKeys parses the machine keys out of the DVFSCatalog map
// literal in internal/machine/dvfs.go, so doc checks track the real
// catalog.
func dvfsCatalogKeys(t *testing.T, root string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "internal", "machine", "dvfs.go"))
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`"([a-z0-9][a-z0-9-]*)":\s*withCurve\(`)
	keys := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		keys[m[1]] = true
	}
	if len(keys) < 2 {
		t.Fatalf("only %d DVFS catalog keys parsed from internal/machine/dvfs.go; extraction is likely broken", len(keys))
	}
	return keys
}

// TestDocOperatingPointsDocumented requires every machine carrying a
// DVFS operating-point curve to be documented — backticked — in
// docs/DVFS.md, so a new curve-carrying machine cannot ship
// undocumented (the pattern of TestDocModelNamesDocumented).
func TestDocOperatingPointsDocumented(t *testing.T) {
	root := mustModuleRoot(t)
	keys := dvfsCatalogKeys(t, root)
	doc, err := os.ReadFile(filepath.Join(root, "docs", "DVFS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for key := range keys {
		if !strings.Contains(string(doc), "`"+key+"`") {
			t.Errorf("docs/DVFS.md does not document the DVFS-catalog machine `%s`", key)
		}
	}
}

// TestDocGodocExamplesExist requires every ExampleXxx identifier the
// docs mention to exist as a godoc example function somewhere in the
// repository's test sources.
func TestDocGodocExamplesExist(t *testing.T) {
	root := mustModuleRoot(t)
	re := regexp.MustCompile(`\bExample[A-Z]\w*\b`)
	wanted := map[string][]string{}
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range re.FindAllString(string(data), -1) {
			wanted[name] = append(wanted[name], doc)
		}
	}
	if len(wanted) == 0 {
		t.Skip("no godoc example mentions in the docs")
	}
	defined := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for name := range wanted {
			if strings.Contains(string(data), "func "+name+"(") {
				defined[name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, docs := range wanted {
		if !defined[name] {
			t.Errorf("%s mention godoc example %s, which no _test.go defines", strings.Join(docs, ", "), name)
		}
	}
}

// TestDocBenchFilesExist requires every BENCH_*.json file the docs
// mention to exist at the repo root, so the documented benchmark
// trajectories cannot dangle.
func TestDocBenchFilesExist(t *testing.T) {
	root := mustModuleRoot(t)
	re := regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)
	found := 0
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range re.FindAllString(string(data), -1) {
			found++
			if _, err := os.Stat(filepath.Join(root, name)); err != nil {
				t.Errorf("%s mentions %s, which does not exist at the repo root", doc, name)
			}
		}
	}
	if found == 0 {
		t.Error("no BENCH_*.json mentions found across the docs; extraction is likely broken")
	}
}

// TestMarkdownRelativeLinks resolves every relative [text](target)
// link in the checked documents against the filesystem.
func TestMarkdownRelativeLinks(t *testing.T) {
	root := mustModuleRoot(t)
	re := regexp.MustCompile(`\[[^\]]+\]\(([^)]+)\)`)
	for _, doc := range docFiles {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(root, filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: relative link %q does not resolve (%v)", doc, m[1], err)
			}
		}
	}
}

// TestPackagesHaveDocComments requires a package doc comment on every
// package with non-test sources, keeping `go doc ./internal/<pkg>`
// useful everywhere.
func TestPackagesHaveDocComments(t *testing.T) {
	root := mustModuleRoot(t)
	var missing []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); name == "figures" || name == "docs" || name == "testdata" ||
			strings.HasPrefix(name, ".") {
			return filepath.SkipDir
		}
		sources, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		documented, hasNonTest := false, false
		for _, src := range sources {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			hasNonTest = true
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, src, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			if f.Doc != nil {
				documented = true
				break
			}
		}
		if hasNonTest && !documented {
			rel, _ := filepath.Rel(root, path)
			missing = append(missing, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Errorf("packages without a package doc comment:\n  %s", strings.Join(missing, "\n  "))
	}
}
