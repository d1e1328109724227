package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/trace"
)

// TestSmoke runs every workload for one second, untraced and traced,
// and holds the output to the contract: a passing run, every metric of
// the mode by name and unit, and for traced runs a valid Chrome trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, about two minutes")
	}
	bin := filepath.Join(t.TempDir(), "asrankd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/asrank-go/asrank/cmd/asrankd").CombinedOutput(); err != nil {
		t.Fatalf("build asrankd: %v\n%s", err, out)
	}
	for _, wl := range []string{"batch", "stream", "serve"} {
		for _, traced := range []string{"0", "1"} {
			t.Run(wl+"/trace"+traced, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", traced,
					"--asrankd", bin, "--rundir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("summary %+v\n%s", sum, stdout.String())
				}
				defs := endToEnd
				if traced == "1" {
					defs = perLayer
				}
				if len(sum.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(sum.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := sum.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
					}
					if traced == "0" && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if traced == "1" {
					raw, err := os.ReadFile(filepath.Join(dir, wl+".trace.json"))
					if err != nil {
						t.Fatal(err)
					}
					if err := trace.CheckChrome(raw); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}
