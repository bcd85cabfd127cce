package docscheck

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"mcn/internal/wire"
)

// repoRoot walks up from the working directory to the directory holding
// go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the working directory")
		}
		dir = parent
	}
}

// markdownFiles returns every .md file in the repository, skipping VCS and
// test fixture directories.
func markdownFiles(t *testing.T, root string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".claude":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

// stripFencedCode removes ``` blocks so code snippets cannot produce false
// link matches.
func stripFencedCode(src string) string {
	var out strings.Builder
	inFence := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// githubSlug reproduces GitHub's heading-anchor algorithm closely enough
// for this repository: lowercase, drop everything but letters, digits,
// spaces, hyphens and underscores, then turn spaces into hyphens.
func githubSlug(heading string) string {
	heading = strings.ReplaceAll(heading, "`", "")
	var b strings.Builder
	for _, r := range strings.TrimSpace(heading) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_':
			b.WriteRune(unicode.ToLower(r))
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchors returns the set of heading anchors a markdown file defines.
func anchors(src string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(stripFencedCode(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		heading := strings.TrimLeft(trimmed, "#")
		if heading == trimmed || (heading != "" && heading[0] != ' ') {
			continue // not a heading (e.g. a #! line or hashtag)
		}
		out[githubSlug(heading)] = true
	}
	return out
}

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks fails on any relative markdown link whose target file
// or heading anchor does not exist — the docs-freshness gate: renaming a
// file or rewording a heading breaks the build instead of silently
// stranding readers.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	files := markdownFiles(t, root)

	contents := make(map[string]string, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		contents[f] = string(b)
	}

	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		for _, m := range linkRe.FindAllStringSubmatch(stripFencedCode(contents[f]), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			dest := f
			if path != "" {
				dest = filepath.Join(filepath.Dir(f), path)
				info, err := os.Stat(dest)
				if err != nil {
					t.Errorf("%s: dead link %q: %v", rel, target, err)
					continue
				}
				if info.IsDir() || frag == "" {
					continue
				}
			}
			body, ok := contents[dest]
			if !ok {
				b, err := os.ReadFile(dest)
				if err != nil {
					t.Errorf("%s: link %q: %v", rel, target, err)
					continue
				}
				body = string(b)
			}
			if frag != "" && !anchors(body)[frag] {
				t.Errorf("%s: link %q: no heading with anchor #%s in %s",
					rel, target, frag, filepath.Base(dest))
			}
		}
	}
}

// TestPackageComments fails when a Go package lacks a `// Package ...` doc
// comment, keeping `go doc ./...` a coherent tour of the codebase. Package
// main commands are held to the same bar: their doc comment is the CLI's
// usage documentation.
func TestPackageComments(t *testing.T) {
	root := repoRoot(t)
	seen := map[string]bool{} // package dirs with a doc comment
	dirs := map[string]string{}

	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".claude":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		dirs[dir] = file.Name.Name
		// Libraries must follow the `// Package <name> ...` convention;
		// commands and examples conventionally open `// Command <name> ...`
		// or describe the program, so any non-empty doc comment counts.
		if file.Doc != nil {
			doc := strings.TrimSpace(file.Doc.Text())
			if file.Name.Name == "main" && doc != "" {
				seen[dir] = true
			}
			if strings.HasPrefix(doc, "Package "+file.Name.Name) {
				seen[dir] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, name := range dirs {
		if !seen[dir] {
			rel, _ := filepath.Rel(root, dir)
			t.Errorf("package %s (%s): no file carries a package doc comment", name, rel)
		}
	}
}

var (
	flagDefRe = regexp.MustCompile(`flag\.[A-Z][A-Za-z0-9]*\(\s*"([^"]+)"`)
	flagDocRe = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
)

// TestServerFlagsDocumented holds README.md's flag tables equal to the flags
// of the two serving binaries, both ways: an operator reads the tables, not
// the source, so a flag added without a row saying who needs it does not
// exist for them, and a row left behind by a deleted flag sends them to
// one that no longer exists.
func TestServerFlagsDocumented(t *testing.T) {
	root := repoRoot(t)
	b, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	defined := map[string]bool{}
	for _, cmd := range []string{"mcnserve", "mcngateway"} {
		src, err := os.ReadFile(filepath.Join(root, "cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		defs := flagDefRe.FindAllStringSubmatch(string(src), -1)
		if len(defs) == 0 {
			t.Errorf("cmd/%s: no flag definitions found; the check is blind", cmd)
		}
		for _, m := range defs {
			defined[m[1]] = true
			if !strings.Contains(readme, "`-"+m[1]+"`") {
				t.Errorf("cmd/%s: flag -%s is not documented in README.md", cmd, m[1])
			}
		}
	}

	// Rows of every table headed "| Flag |", up to the first non-table line.
	documented, inTable := 0, false
	for _, line := range strings.Split(readme, "\n") {
		switch {
		case strings.HasPrefix(line, "| Flag |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			for _, m := range flagDocRe.FindAllStringSubmatch(line, -1) {
				documented++
				if !defined[m[1]] {
					t.Errorf("README.md flag table names -%s, which neither cmd/mcnserve nor cmd/mcngateway defines: %s", m[1], line)
				}
			}
		}
	}
	if documented == 0 {
		t.Error("README.md: no flags found in any \"| Flag |\" table; the reverse check is blind")
	}
}

// TestFailureTableDocumented holds README.md's failure table equal to
// wire.Failures, row for row: the class, its status, whether it carries
// Retry-After, its message (a fixed one quoted, else the error's own text)
// and what the gateway does with it. A client's and an operator's retry
// logic is written from the README, so a class whose status or retry rule
// moved in the code alone would break it unannounced.
func TestFailureTableDocumented(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "| Class | Status |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable && !strings.HasPrefix(line, "|---"):
			var cells []string
			for _, c := range strings.Split(strings.Trim(line, "|"), " | ") {
				cells = append(cells, strings.TrimSpace(c))
			}
			rows = append(rows, cells)
		}
	}
	if len(rows) != len(wire.Failures) {
		t.Fatalf("README.md failure table has %d rows, wire.Failures %d", len(rows), len(wire.Failures))
	}
	for i, f := range wire.Failures {
		row := rows[i]
		if len(row) != 6 {
			t.Errorf("README.md failure table row %d has %d cells, want 6: %v", i, len(row), row)
			continue
		}
		msg, gateway := "the error's own text", "relays it"
		if f.Message != "" {
			msg = "`" + f.Message + "`"
		}
		if i == int(wire.ClassInvalid) {
			msg = "the refusal's own text"
		}
		switch {
		case f.Cools:
			gateway = "cools the replica"
		case f.Retryable:
			gateway = "asks the next"
		}
		retryAfter := map[bool]string{true: "yes", false: "no"}[f.Cools]
		if row[0] != "`"+f.Outcome+"`" || row[1] != strconv.Itoa(f.Status) || row[2] != retryAfter ||
			row[3] != msg || !strings.HasPrefix(row[4], gateway) {
			t.Errorf("README.md failure table row %d = %v; wire.Failures has `%s` | %d | %s | %s | %s…",
				i, row[:5], f.Outcome, f.Status, retryAfter, msg, gateway)
		}
	}
}

// mdNameRe matches a markdown file name, bare or with a relative path.
var mdNameRe = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestGoCommentsNameExistingMarkdown fails when a Go comment names a
// markdown file that is not in the repository: a pointer to rationale that
// was never written, or was renamed, strands the reader as surely as a
// broken markdown link. A name resolves against the commenting file's
// directory or the repository root.
func TestGoCommentsNameExistingMarkdown(t *testing.T) {
	root := repoRoot(t)
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".claude", ".bench_build":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, group := range file.Comments {
			for _, name := range mdNameRe.FindAllString(group.Text(), -1) {
				if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(filepath.Join(root, name)) {
					t.Errorf("%s: comment names %s, which does not exist", rel, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
