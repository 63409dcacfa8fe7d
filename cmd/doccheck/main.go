// Command doccheck is the documentation lint gate of `make docs`:
//
//  1. Every intra-repo markdown link in every *.md file must resolve to an
//     existing file (anchors and external URLs are ignored).
//  2. Every `pimbench <cmd>` mentioned in the docs must be a real pimbench
//     command; the authoritative list arrives on -cmds (a file, or "-" for
//     stdin so CI can pipe `pimbench -list` straight in).
//  3. Every exported identifier of the public facade package (-pkg) must
//     carry a doc comment, keeping the godoc complete as the API grows.
//  4. Every `pimgo.Xxx` symbol the docs mention must be an exported
//     identifier of the facade package (-pkg), so renames and removals
//     cannot leave stale API references behind.
//  5. Every results/BENCH_*.json file the docs cite must exist in the
//     repository, so a benchmark doc cannot reference a ladder that was
//     never recorded.
//
// Checks 2 and 4 cover only docs that describe the current system. The
// root-level history and plan files (see isPlanDoc) name removed and future
// commands and symbols by design, so they are exempt; links and cited
// benchmark files are still checked everywhere.
//
// It prints one line per violation and exits 1 if any were found, so it
// composes with make and CI the same way gofmt -l does.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	// [text](target) — target may carry an anchor or title suffix.
	linkRe = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	// pimbench command references in code context only — inline code spans,
	// `go run ./cmd/pimbench <cmd>` invocations, or command-position lines
	// in fenced blocks — so prose like "pimbench regenerates ..." is not
	// mistaken for one. Flags and <placeholders> are filtered afterwards.
	cmdRe = regexp.MustCompile("(?m)(?:`|\\./cmd/|^\\s*\\$?\\s*)pimbench\\s+([A-Za-z0-9_<>-]+)")
	// pimgo.Xxx API references. Only uppercase-initial identifiers are
	// checked (pimgo.go and similar file mentions are not API references);
	// dotted chains like pimgo.Cluster.Rebalance validate their first
	// identifier, which is the facade export.
	symRe = regexp.MustCompile(`\bpimgo\.([A-Z][A-Za-z0-9_]*)`)
	// Recorded benchmark ladders the docs cite.
	benchRe = regexp.MustCompile(`results/BENCH_[A-Za-z0-9_]+\.json`)

	// refDocs are the root-level upper-case files that describe the current
	// system. Every other root-level upper-case file (history such as
	// CHANGES.md, plans such as ROADMAP.md, paper and related-work notes) is
	// a plan doc, exempt from the command and API reference checks.
	refDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true}
)

func main() {
	root := flag.String("root", ".", "repository root to scan for *.md files")
	cmds := flag.String("cmds", "", `file listing valid pimbench commands, one per line ("-" = stdin; empty skips the check)`)
	pkg := flag.String("pkg", "", "package directory whose exported identifiers must all have doc comments (empty skips)")
	flag.Parse()

	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	valid := loadCommands(*cmds)
	var exported map[string]bool
	if *pkg != "" {
		exported = checkGodoc(*pkg, report)
	}
	checkMarkdown(*root, valid, exported, report)

	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// loadCommands reads the valid pimbench command names; nil means the
// command-reference check is disabled.
func loadCommands(path string) map[string]bool {
	if path == "" {
		return nil
	}
	var r *os.File
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	valid := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if name := strings.TrimSpace(sc.Text()); name != "" {
			valid[name] = true
		}
	}
	return valid
}

// isPlanDoc reports whether path is a root-level upper-case markdown file
// that is not one of the refDocs.
func isPlanDoc(root, path string) bool {
	name := filepath.Base(path)
	return filepath.Dir(path) == filepath.Clean(root) && !refDocs[name] &&
		name == strings.ToUpper(strings.TrimSuffix(name, ".md"))+".md"
}

// checkMarkdown walks *.md files under root, validating intra-repo links,
// (when valid is non-nil) pimbench command references, (when exported is
// non-nil) pimgo.* API references, and that every cited results/BENCH_*.json
// ladder exists in the repository. Command and API references are not
// checked in plan docs (see isPlanDoc).
func checkMarkdown(root string, valid, exported map[string]bool, report func(string, ...any)) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(data)

		for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" { // same-document anchor
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				report("%s: broken link %q (%s does not exist)", path, m[1], resolved)
			}
		}

		for _, m := range benchRe.FindAllString(text, -1) {
			if _, err := os.Stat(filepath.Join(root, m)); err != nil {
				report("%s: benchmark file %q is not checked in", path, m)
			}
		}

		if isPlanDoc(root, path) {
			return nil
		}

		if exported != nil {
			for _, m := range symRe.FindAllStringSubmatch(text, -1) {
				if !exported[m[1]] {
					report("%s: unknown API reference %q (pimgo does not export %s)", path, m[0], m[1])
				}
			}
		}

		if valid == nil {
			return nil
		}
		for _, m := range cmdRe.FindAllStringSubmatch(text, -1) {
			name := m[1]
			// Flags (`pimbench -list`) and placeholders (`pimbench <cmd>`)
			// are not command references.
			if strings.HasPrefix(name, "-") || strings.ContainsAny(name, "<>") {
				continue
			}
			if !valid[name] {
				report("%s: unknown pimbench command %q (not in `pimbench -list`)", path, name)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}
}

// checkGodoc parses the package in dir and reports every exported top-level
// identifier without a doc comment. A comment on a grouped GenDecl covers
// its specs, matching godoc's own attribution. It returns the set of
// exported identifier names, which checkMarkdown uses to validate pimgo.*
// references in the documentation.
func checkGodoc(dir string, report func(string, ...any)) map[string]bool {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(1)
	}
	exported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						continue // methods of aliased types live in internal/
					}
					if d.Name.IsExported() {
						exported[d.Name.Name] = true
						if d.Doc == nil {
							report("%s: exported func %s has no doc comment",
								fset.Position(d.Pos()), d.Name.Name)
						}
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								exported[s.Name.Name] = true
								if !groupDoc && s.Doc == nil && s.Comment == nil {
									report("%s: exported type %s has no doc comment",
										fset.Position(s.Pos()), s.Name.Name)
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() {
									exported[name.Name] = true
									if !groupDoc && s.Doc == nil && s.Comment == nil {
										report("%s: exported %s %s has no doc comment",
											fset.Position(s.Pos()), declKind(d.Tok), name.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return exported
}

func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
