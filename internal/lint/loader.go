package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the program.
type Package struct {
	// Path is the import path ("ysmart/internal/cmf", or a synthetic
	// path for testdata corpora loaded by directory).
	Path string
	// Rel is the module-relative directory ("internal/cmf").
	Rel string
	// Dir is the absolute directory.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded module: every requested package plus everything
// they import from the module, sharing one FileSet.
type Program struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string
	// Pkgs maps import path to package for every module package loaded.
	Pkgs map[string]*Package

	loading map[string]bool
	std     types.ImporterFrom

	// Interprocedural caches, built lazily and shared by analyzers.
	callgraph  *CallGraph
	nondetOnce bool
	nondet     map[*types.Func]*Fact
}

// Target is one package selected by the command-line patterns. Explicit
// targets (named directories rather than ./... expansion) bypass
// analyzer package scopes.
type Target struct {
	Pkg      *Package
	Explicit bool
}

// Load parses and type-checks the packages matched by patterns under
// the module containing dir. Supported patterns: "./..." (every package
// in the module, testdata and hidden directories excluded) and explicit
// directory paths. Test files are never loaded; the suite vets the
// shipped code.
func Load(dir string, patterns []string) (*Program, []Target, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		ModPath: modPath,
		ModRoot: root,
		Pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	prog.std = importer.ForCompiler(prog.Fset, "source", nil).(types.ImporterFrom)

	var targets []Target
	seen := make(map[string]bool)
	addTarget := func(p *Package, explicit bool) {
		if !seen[p.Path] {
			seen[p.Path] = true
			targets = append(targets, Target{Pkg: p, Explicit: explicit})
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := moduleDirs(root)
			if err != nil {
				return nil, nil, err
			}
			for _, d := range dirs {
				p, err := prog.loadDir(d)
				if err != nil {
					return nil, nil, err
				}
				addTarget(p, false)
			}
		default:
			abs := pat
			if !filepath.IsAbs(abs) {
				abs = filepath.Join(dir, pat)
			}
			abs = filepath.Clean(abs)
			p, err := prog.loadDir(abs)
			if err != nil {
				return nil, nil, err
			}
			addTarget(p, true)
		}
	}
	sort.Slice(targets, func(i, k int) bool { return targets[i].Pkg.Path < targets[k].Pkg.Path })
	return prog, targets, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// moduleDirs returns every directory under root holding at least one
// non-test Go file, skipping testdata, vendor, and hidden or
// underscore-prefixed directories (the go tool's own walk rules).
func moduleDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(out) == 0 || out[len(out)-1] != dir {
				out = append(out, dir)
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// importPathOf maps a directory inside the module to its import path.
func (prog *Program) importPathOf(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(prog.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, prog.ModRoot)
	}
	if rel == "." {
		return prog.ModPath, nil
	}
	return prog.ModPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir loads (or returns the cached) package in the directory.
func (prog *Program) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := prog.importPathOf(abs)
	if err != nil {
		return nil, err
	}
	return prog.load(path, abs)
}

// load parses and type-checks one module package, resolving its module
// imports recursively and its stdlib imports through the source
// importer.
func (prog *Program) load(path, dir string) (*Package, error) {
	if p, ok := prog.Pkgs[path]; ok {
		return p, nil
	}
	if prog.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	prog.loading[path] = true
	defer delete(prog.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*progImporter)(prog),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, prog.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	rel := strings.TrimPrefix(path, prog.ModPath+"/")
	if path == prog.ModPath {
		rel = "."
	}
	p := &Package{Path: path, Rel: rel, Dir: dir, Files: files, Types: tpkg, Info: info}
	prog.Pkgs[path] = p
	return p, nil
}

// progImporter adapts Program to types.Importer: module-internal import
// paths load recursively from source, everything else goes to the
// stdlib source importer.
type progImporter Program

// Import implements types.Importer.
func (pi *progImporter) Import(path string) (*types.Package, error) {
	return pi.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (pi *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	prog := (*Program)(pi)
	if path == prog.ModPath || strings.HasPrefix(path, prog.ModPath+"/") {
		rel := strings.TrimPrefix(path, prog.ModPath)
		rel = strings.TrimPrefix(rel, "/")
		p, err := prog.load(path, filepath.Join(prog.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return prog.std.ImportFrom(path, dir, mode)
}
