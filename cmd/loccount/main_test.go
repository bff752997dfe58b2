package main

import (
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// persistCall matches a line that calls one of the heap's persistence
// primitives.
var persistCall = regexp.MustCompile(`\bheap\.(Persist|Fence|PersistFence)\(`)

// TestEveryPersistenceCallIsTagged holds Table 1 to the code: every
// flush or fence in the five conversions lies on a line readDir
// attributes to a RECIPE: tag, so the port's column counts all of them.
func TestEveryPersistenceCallIsTagged(t *testing.T) {
	for src, dir := range pkgFor {
		files, err := readDir(filepath.Join("..", "..", dir))
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		calls := 0
		for _, name := range names {
			for i, l := range files[name] {
				if !persistCall.MatchString(l.text) {
					continue
				}
				calls++
				if !l.conv {
					t.Errorf("%s/%s:%d: untagged persistence call: %s", dir, name, i+1, l.text)
				}
			}
		}
		if calls == 0 {
			t.Errorf("%s (%s): no persistence call found", src, dir)
		}
	}
}
