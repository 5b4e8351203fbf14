package ilplimit_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ilplimit/internal/harness"
)

// ilpcEntries lists the committed trace files in a store directory.
func ilpcEntries(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.ilpc"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestCLITraceCache drives the annotated trace store end to end: a cold
// run populates it while emitting bytes identical to an uncached run, a
// warm run replays from it (same bytes, no tracing), every committed
// file passes tracegen -verify, and the wreckage of a SIGKILL mid-
// population — stray temp files, a temp promoted over a final name, a
// truncated final — only ever costs time: the next run falls back,
// repairs the store, and still matches the reference byte for byte.
func TestCLITraceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	tracegen := buildCmd(t, "tracegen")
	benches := "awk,eqntott,irsim"
	nbench := len(strings.Split(benches, ","))

	ref, err := exec.Command(bin, "-bench", benches, "-json").Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Cold: populates while producing the reference bytes.
	dir := t.TempDir()
	cold, err := exec.Command(bin, "-bench", benches, "-json", "-trace-cache", dir).Output()
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !bytes.Equal(cold, ref) {
		t.Errorf("cold cached output differs from reference (%d vs %d bytes)", len(cold), len(ref))
	}
	files := ilpcEntries(t, dir)
	if len(files) != nbench {
		t.Fatalf("cold run committed %d trace files, want %d: %v", len(files), nbench, files)
	}
	for _, f := range files {
		runCmd(t, tracegen, "-verify", f)
	}

	// Warm: replays from the store — identical bytes, and -v says so.
	warmCmd := exec.Command(bin, "-bench", benches, "-json", "-trace-cache", dir, "-v")
	var warmErr strings.Builder
	warmCmd.Stderr = &warmErr
	warm, err := warmCmd.Output()
	if err != nil {
		t.Fatalf("warm run: %v\n%s", err, warmErr.String())
	}
	if !bytes.Equal(warm, ref) {
		t.Errorf("warm cached output differs from reference (%d vs %d bytes)", len(warm), len(ref))
	}
	if !strings.Contains(warmErr.String(), "cached trace") {
		t.Errorf("warm run never reported a cached replay:\n%s", warmErr.String())
	}

	// SIGKILL mid-population: no cleanup, no deferred renames — the
	// crash the commit protocol exists for.
	dir2 := t.TempDir()
	kcmd := exec.Command(bin, "-bench", benches, "-json", "-trace-cache", dir2)
	kcmd.Stdout, kcmd.Stderr = nil, nil
	if err := kcmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(ilpcEntries(t, dir2)) == 0 {
		if time.Now().After(deadline) {
			_ = kcmd.Process.Kill()
			_ = kcmd.Wait()
			t.Fatal("no trace file committed within the deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := kcmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = kcmd.Wait()

	// Worst-case wreckage, manufactured deliberately: promote any
	// leftover temp file over its final name (a torn, footerless file
	// under a committed name), and truncate one genuinely committed file.
	tmps, err := filepath.Glob(filepath.Join(dir2, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tmp := range tmps {
		base := filepath.Base(tmp)
		i := strings.Index(base, ".ilpc")
		if i < 0 {
			t.Fatalf("temp file %q does not embed a final name", base)
		}
		if err := os.Rename(tmp, filepath.Join(dir2, base[:i+len(".ilpc")])); err != nil {
			t.Fatal(err)
		}
	}
	survivors := ilpcEntries(t, dir2)
	fi, err := os.Stat(survivors[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(survivors[0], fi.Size()*2/3); err != nil {
		t.Fatal(err)
	}

	// The rerun must detect every damaged entry, fall back to live
	// tracing, match the reference exactly, and leave a repaired store.
	repaired, err := exec.Command(bin, "-bench", benches, "-json", "-trace-cache", dir2).Output()
	if err != nil {
		t.Fatalf("rerun over damaged store: %v", err)
	}
	if !bytes.Equal(repaired, ref) {
		t.Errorf("rerun over damaged store differs from reference (%d vs %d bytes)", len(repaired), len(ref))
	}
	files2 := ilpcEntries(t, dir2)
	if len(files2) != nbench {
		t.Fatalf("repaired store holds %d trace files, want %d: %v", len(files2), nbench, files2)
	}
	for _, f := range files2 {
		runCmd(t, tracegen, "-verify", f)
	}

	// And the repaired store serves a warm run.
	warm2, err := exec.Command(bin, "-bench", benches, "-json", "-trace-cache", dir2).Output()
	if err != nil {
		t.Fatalf("warm run over repaired store: %v", err)
	}
	if !bytes.Equal(warm2, ref) {
		t.Errorf("warm run over repaired store differs from reference")
	}
}

// storeState describes every file in a store directory by name, size,
// modification time and SHA-256 digest, so two states differ when a
// file was added, removed or rewritten in between.
func storeState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = fmt.Sprintf("%d %v %x", fi.Size(), fi.ModTime().UnixNano(), sha256.Sum256(data))
	}
	return state
}

// TestCLITraceCacheStudies runs every study of harness.Studies three
// ways — uncached, over a cold store and over the warm store the cold
// run left — and requires identical output from all three, a cold run
// that stored something, and a warm run that adds or rewrites no file.
func TestCLITraceCacheStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	for _, s := range harness.Studies {
		t.Run(s.Name, func(t *testing.T) {
			args := []string{"-study", s.Name, "-bench", "awk,eqntott"}
			ref := runCmd(t, bin, args...)
			dir := t.TempDir()
			cached := append(args, "-trace-cache", dir)
			if cold := runCmd(t, bin, cached...); cold != ref {
				t.Errorf("cold-store output differs from uncached:\n%s\nwant:\n%s", cold, ref)
			}
			if len(ilpcEntries(t, dir)) == 0 {
				t.Fatal("cold run stored no trace")
			}
			before := storeState(t, dir)
			if warm := runCmd(t, bin, cached...); warm != ref {
				t.Errorf("warm-store output differs from uncached:\n%s\nwant:\n%s", warm, ref)
			}
			if after := storeState(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("warm run changed the store:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestCLITraceCacheChaos composes the trace store with the seeded chaos
// schedule: pipeline faults suppress population (a mutated chunk must
// never be committed) and warm hits stay valid under faults, so a
// converged chaos run — cold or warm store — produces the reference
// bytes.
func TestCLITraceCacheChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "ilplimit")
	benches := "awk,eqntott"

	ref, err := exec.Command(bin, "-bench", benches, "-json").Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := t.TempDir()
	for _, phase := range []string{"cold", "warm"} {
		const attempts = 5
		ok := false
		for attempt := 1; attempt <= attempts; attempt++ {
			derived := fmt.Sprintf("7%02d", attempt)
			cmd := exec.Command(bin, "-bench", benches, "-json",
				"-chaos", derived, "-trace-cache", dir)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if runErr := cmd.Run(); runErr != nil {
				t.Logf("%s attempt %d (chaos %s) failed as scheduled: %v", phase, attempt, derived, runErr)
				continue
			}
			if got := stdout.Bytes(); !bytes.Equal(got, ref) {
				t.Fatalf("%s chaos run converged but differs from reference (%d vs %d bytes)", phase, len(got), len(ref))
			}
			ok = true
			break
		}
		if !ok {
			t.Fatalf("no clean %s chaos run within %d attempts", phase, attempts)
		}
		if phase == "cold" {
			// Populate cleanly so the second phase hits a warm store.
			if _, err := exec.Command(bin, "-bench", benches, "-json", "-trace-cache", dir).Output(); err != nil {
				t.Fatalf("clean populate: %v", err)
			}
			if n := len(ilpcEntries(t, dir)); n == 0 {
				t.Fatal("clean populate committed no trace files")
			}
		}
	}
}
