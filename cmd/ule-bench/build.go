package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
)

// buildDir holds everything a run writes: the binaries of the programs
// under test and the per-run scratch directories. It is inside the
// checkout and named in .gitignore.
const buildDir = ".bench_build"

// buildBinary builds ./cmd/<name> from the checkout's source into
// buildDir/bin and returns the binary's path. The go tool decides whether
// anything is stale, so after the first run of a checkout this is a
// no-op costing a fraction of a second; it is not counted into setup_s.
func buildBinary(root, name string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin, nil
}
