// Command loccount regenerates Table 1 for this Go port: for each
// converted index package it counts total core lines of code and the
// lines belonging to the RECIPE conversion (every line or block tagged
// with a "RECIPE:" comment — the flush/fence placements, the helper
// mechanisms, and the crash-detection code). It prints the port's numbers
// next to the paper's, plus Tables 2 and 3.
//
// Usage:
//
//	go run ./cmd/loccount
//	go run ./cmd/loccount -conditions   # only Tables 2 and 3
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/ycsb"
)

// pkgFor maps evaluation names to source directories.
var pkgFor = map[string]string{
	"CLHT":     "internal/clht",
	"HOT":      "internal/hot",
	"BwTree":   "internal/bwtree",
	"ART":      "internal/art",
	"Masstree": "internal/masstree",
}

func main() {
	conditionsOnly := flag.Bool("conditions", false, "print only Tables 2 and 3")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	if !*conditionsOnly {
		fmt.Println("=== Table 1 (paper figures + this port's LOC from RECIPE: tags) ===")
		fmt.Println(core.Table1())
		fmt.Println("This Go port:")
		fmt.Printf("%-10s | %-9s | %8s | %9s\n", "Index", "Condition", "Core LOC", "Conv. LOC")
		fmt.Println("-----------+-----------+----------+----------")
		for _, info := range core.Converted {
			dir, ok := pkgFor[info.Source]
			if !ok {
				continue
			}
			total, conv, err := countDir(filepath.Join(*root, dir))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%-10s | %-9s | %8d | %4d (%.0f%%)\n",
				info.Source, info.Condition, total, conv, float64(conv)/float64(total)*100)
		}
		fmt.Println()
	}
	fmt.Println("=== Table 2 ===")
	fmt.Println(core.Table2())
	fmt.Println("=== Table 3 ===")
	fmt.Println(ycsb.Describe())
}

// line is one source line, trimmed, and whether Table 1 attributes it
// to a RECIPE: tag.
type line struct {
	text string
	conv bool
}

// readDir returns the lines of dir's non-test Go files, keyed by file
// name. The attribution rule: a line with a "// RECIPE:" comment (a
// package comment that names the tag is no tag) counts itself and
// the next two statement lines (comment lines between them do not use
// up the window, a blank line ends it) — matching how the paper counts
// the inserted flush/fence/helper lines. Table 1 and the check that
// every persistence call is tagged (main_test.go) both read it.
func readDir(dir string) (map[string][]line, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]line)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var lines []line
		sc := bufio.NewScanner(f)
		inConv := 0 // statement lines still attributed to a RECIPE tag
		for sc.Scan() {
			l := line{text: strings.TrimSpace(sc.Text())}
			switch {
			case l.text == "":
				inConv = 0
			case strings.Contains(l.text, "// RECIPE:") || strings.Contains(l.text, "// RECIPE-FIXED:"):
				l.conv = true
				inConv = 2
			case inConv > 0 && !strings.HasPrefix(l.text, "//"):
				l.conv = true
				inConv--
			}
			lines = append(lines, l)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		files[name] = lines
	}
	return files, nil
}

// countDir returns (core LOC excluding tests and blanks, conversion LOC).
func countDir(dir string) (total, conv int, err error) {
	files, err := readDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, lines := range files {
		for _, l := range lines {
			if l.text != "" {
				total++
			}
			if l.conv {
				conv++
			}
		}
	}
	return total, conv, nil
}
