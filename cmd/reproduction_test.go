package cmd_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// reproductionSHA256 pins `dimabench -exp all -scale 0.1`: the SHA-256
// of its stdout with the timing lines masked (timingRe), and of every
// file its -save and -csv flags write. A change that moves the paper's
// numbers on purpose re-records these and regenerates EXPERIMENTS.md.
var reproductionSHA256 = map[string]string{
	"stdout":          "421146436e8b9c80523008c52c30a2df8a6048fda4dabbf937f778fa5cc16b02",
	"fig3-rounds.csv": "2647b079689c350ac996527c01e2e61986da82d1229c034c679f44e77213a513",
	"fig3-runs.json":  "836105f95e386957e86ab034dca8b10928ba56125bd77034de92cb6b61e55831",
	"fig4-rounds.csv": "4bce38469ab5468c6679b5a26a16bb630fa40f3a4420b838e4488a7b384a1d2b",
	"fig4-runs.json":  "21443cf9b6fa9bff012c384d03fe26a25e00ff1117b7407a07e4d0037dfe04a3",
	"fig5-rounds.csv": "be6616d70e56a73258ca15a4d3d6a9568cd83fb42d98608fdee2c083617d2655",
	"fig5-runs.json":  "88314db576eb0e11b4d59bc75fb6fe67bcace959915a26368a19a7cb8eadbe9f",
	"fig6-rounds.csv": "1a0288a5ff1fc523f7b781ba8970ecff57b35981aab0dc809aea541d74fb331a",
	"fig6-runs.json":  "5a8f7e6ca847bcc0e80391e40b824a8e1bef8129696432cb8745b7ab7d865cd1",
}

// timingRe matches the wall time in dimabench's "N runs in X" lines,
// the only part of its output that differs between identical runs.
var timingRe = regexp.MustCompile(`runs in \S+`)

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestDimabenchReproduction runs the paper reproduction at one and two
// workers and compares every output with reproductionSHA256: the
// figures, fits and tables must not depend on the worker count, and
// must not move unless a change means them to. -short runs fig3 alone
// and checks its -save file, which a grid of the same specs and seed
// reproduces.
func TestDimabenchReproduction(t *testing.T) {
	args, want := []string{"-exp", "all", "-csv", "rounds.csv"}, reproductionSHA256
	if testing.Short() {
		args = []string{"-exp", "fig3"}
		want = map[string]string{"fig3-runs.json": reproductionSHA256["fig3-runs.json"]}
	}
	for _, workers := range []string{"1", "2"} {
		t.Run("workers="+workers, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cmd := exec.Command(filepath.Join(binDir, "dimabench"),
				append(args, "-scale", "0.1", "-workers", workers, "-save", "runs.json")...)
			cmd.Dir = dir
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("dimabench: %v", err)
			}
			got := map[string]string{}
			if !testing.Short() {
				got["stdout"] = sha256Hex(timingRe.ReplaceAll(stdout, []byte("runs in X")))
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = sha256Hex(data)
			}
			names := make([]string, 0, len(got)+len(want))
			for name := range got {
				names = append(names, name)
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					names = append(names, name)
				}
			}
			slices.Sort(names)
			for _, name := range names {
				if got[name] != want[name] {
					t.Errorf("%s: sha256 %q, pinned %q", name, got[name], want[name])
				}
			}
		})
	}
}
