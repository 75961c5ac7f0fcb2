package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// checkGolden compares every figure a quick shape test computes with
// its checked-in CSV, testdata/golden/<figure id>.csv: every column but
// the wall-clock ones (series ending in "_s"), each value in Go's
// shortest round-trip form, so a change that moves any figure by one
// bit fails here. Figures are bit-reproducible on amd64 only (Go fuses
// multiply-adds on arm64, which moves the last bits of every LP), and
// under -race fig3 and fig4b run a tenth of the node budget, so the
// check runs on amd64 without the race detector. A change that moves a
// figure on purpose replaces the golden file with the CSV the failure
// prints.
func checkGolden(t *testing.T, figs ...*Figure) {
	t.Helper()
	if runtime.GOARCH != "amd64" || raceEnabled {
		return
	}
	for _, f := range figs {
		got := goldenCSV(f)
		path := filepath.Join("testdata", "golden", f.ID+".csv")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("figure %s: %v; computed:\n%s", f.ID, err, got)
			continue
		}
		if line := firstDiff(string(want), got); line != "" {
			t.Errorf("figure %s differs from %s at %s; computed:\n%s", f.ID, path, line, got)
		}
	}
}

// goldenCSV renders f without its wall-clock columns.
func goldenCSV(f *Figure) string {
	var keep []int
	for c, s := range f.Series {
		if !strings.HasSuffix(s, "_s") {
			keep = append(keep, c)
		}
	}
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, c := range keep {
		b.WriteString("," + f.Series[c])
	}
	b.WriteString("\n")
	for r, x := range f.X {
		b.WriteString(x)
		for _, c := range keep {
			b.WriteString("," + strconv.FormatFloat(f.Y[r][c], 'g', -1, 64))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// firstDiff names the first line where want and got differ, or returns
// "" when they are equal.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d (%q, golden %q)", i+1, gl, wl)
		}
	}
	return ""
}
