package iofault

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// writeFile creates path on fsys with the given contents, without any
// fsync — the data and the directory entry both stay volatile on Sim.
func writeFile(t *testing.T, fsys FS, path, data string) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	return f
}

func TestSimCrashDropsUnsyncedData(t *testing.T) {
	sim := NewSim()
	f := writeFile(t, sim, "a.txt", "hello")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sim.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	// Entry survives (dir synced) but content was never fsynced.
	got, err := sim.ReadFile("a.txt")
	if err != nil {
		t.Fatalf("entry lost despite SyncDir: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("unsynced content survived crash: %q", got)
	}
}

func TestSimCrashDropsUnsyncedDirEntry(t *testing.T) {
	sim := NewSim()
	f := writeFile(t, sim, "a.txt", "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// File content is durable but the directory entry was never synced.
	sim.Crash()
	if _, err := sim.ReadFile("a.txt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("entry survived crash without SyncDir: %v", err)
	}
}

func TestSimFullyDurableWriteSurvivesCrash(t *testing.T) {
	sim := NewSim()
	if err := sim.MkdirAll("dir/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sim.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if err := sim.SyncDir("dir"); err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, sim, "dir/sub/a.txt", "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sim.SyncDir("dir/sub"); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	got, err := sim.ReadFile("dir/sub/a.txt")
	if err != nil || string(got) != "hello" {
		t.Fatalf("durable write lost: %q, %v", got, err)
	}
	// The handle from before the crash is dead.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("stale handle usable after crash: %v", err)
	}
}

func TestSimRenameDurability(t *testing.T) {
	sim := NewSim()
	f := writeFile(t, sim, "a.tmp", "v1")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sim.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if err := sim.Rename("a.tmp", "a.txt"); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	// Rename was never made durable: the old name is back.
	if _, err := sim.ReadFile("a.tmp"); err != nil {
		t.Fatalf("pre-rename entry lost: %v", err)
	}
	if _, err := sim.ReadFile("a.txt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("volatile rename survived crash: %v", err)
	}
	if err := sim.Rename("a.tmp", "a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := sim.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	if got, err := sim.ReadFile("a.txt"); err != nil || string(got) != "v1" {
		t.Fatalf("durable rename lost: %q, %v", got, err)
	}
}

func TestSimAppendAndSeek(t *testing.T) {
	sim := NewSim()
	f, err := sim.OpenFile("log", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"aa", "bb"} {
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := sim.ReadFile("log")
	if err != nil || string(got) != "aabc" {
		t.Fatalf("append/truncate sequence: %q, %v", got, err)
	}
	r, err := sim.OpenFile("log", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || string(rest) != "bc" {
		t.Fatalf("seek+read: %q, %v", rest, err)
	}
}

func TestWrapExactTriggers(t *testing.T) {
	cases := []struct {
		kind  string
		errno error
	}{
		{KindWriteEIO, syscall.EIO},
		{KindWriteENOSPC, syscall.ENOSPC},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			fsys := Wrap(NewSim(), NewPlan(1).SetAt(tc.kind, 2))
			f := writeFile(t, fsys, "a", "first")
			if _, err := f.Write([]byte("second")); !errors.Is(err, tc.errno) {
				t.Fatalf("2nd write err = %v, want %v", err, tc.errno)
			} else if !IsInjected(err) {
				t.Fatalf("fault not classified as injected: %v", err)
			}
			// Third write goes through: the @N trigger is one-shot.
			if _, err := f.Write([]byte("third")); err != nil {
				t.Fatalf("3rd write: %v", err)
			}
		})
	}
}

func TestWrapShortWrite(t *testing.T) {
	sim := NewSim()
	fsys := Wrap(sim, NewPlan(1).SetAt(KindShortWrite, 1))
	f := writeFile(t, sim, "pre", "x") // untouched control file via raw sim
	_ = f.Close()
	g, err := fsys.OpenFile("a", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Write([]byte("0123456789"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("short write err = %v, want EIO", err)
	}
	if n != 5 {
		t.Fatalf("short write n = %d, want 5", n)
	}
	got, err := sim.ReadFile("a")
	if err != nil || string(got) != "01234" {
		t.Fatalf("on-disk prefix = %q, %v", got, err)
	}
}

func TestWrapSyncLieDropsDataAtCrash(t *testing.T) {
	sim := NewSim()
	fsys := Wrap(sim, NewPlan(1).SetAt(KindSyncLie, 1))
	f := writeFile(t, fsys, "a", "doomed")
	if err := f.Sync(); err != nil {
		t.Fatalf("lying sync must report success, got %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	got, err := sim.ReadFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fsync-lied data survived crash: %q", got)
	}
}

func TestWrapTornRename(t *testing.T) {
	sim := NewSim()
	fsys := Wrap(sim, NewPlan(1).SetAt(KindTornRename, 1))
	f := writeFile(t, fsys, "a.tmp", "v1")
	_ = f.Sync()
	_ = f.Close()
	if err := fsys.Rename("a.tmp", "a"); err != nil {
		t.Fatalf("torn rename must report success, got %v", err)
	}
	if _, err := sim.ReadFile("a.tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn rename left source behind: %v", err)
	}
	if _, err := sim.ReadFile("a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn rename created destination: %v", err)
	}
}

func TestWrapSyncDirEIO(t *testing.T) {
	fsys := Wrap(NewSim(), NewPlan(1).SetAt(KindSyncEIO, 1))
	if err := fsys.SyncDir("."); !errors.Is(err, syscall.EIO) {
		t.Fatalf("syncdir err = %v, want EIO", err)
	}
}

func TestPlanMaxFaultsBudget(t *testing.T) {
	p := NewPlan(1).SetRate(KindWriteEIO, 1.0)
	p.MaxFaults = 2
	fsys := Wrap(NewSim(), p)
	f, err := fsys.OpenFile("a", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 5; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("budgeted failures = %d, want 2", failures)
	}
	if p.FiredTotal() != 2 {
		t.Fatalf("FiredTotal = %d, want 2", p.FiredTotal())
	}
	if got := p.Fired()[KindWriteEIO]; got != 2 {
		t.Fatalf("Fired[%s] = %d, want 2", KindWriteEIO, got)
	}
}

func TestPlanRateDeterminism(t *testing.T) {
	run := func() []int {
		fsys := Wrap(NewSim(), NewPlan(99).SetRate(KindWriteEIO, 0.3))
		f, err := fsys.OpenFile("a", os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		var failed []int
		for i := 0; i < 100; i++ {
			if _, err := f.Write([]byte("x")); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 100 ops never fired")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic fault schedule: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic fault schedule: %v vs %v", a, b)
		}
	}
}

// TestPlanString checks the rendering a chaos run prints of its
// journal's fault plan: seed, budget, then each armed kind in the
// fixed kind order, rates before ordinals.
func TestPlanString(t *testing.T) {
	p := NewPlan(7).SetRate(KindSyncLie, 0.05).SetAt(KindWriteEIO, 3)
	p.MaxFaults = 2
	if s := p.String(); s != "seed=7,max=2,write-eio@3,sync-lie=0.05" {
		t.Fatalf("String() = %q", s)
	}
	if s := (*Plan)(nil).String(); s != "off" {
		t.Fatalf("nil String() = %q", s)
	}
}

// TestCommitFile drives the shared commit step: a committed write is
// durable across a crash, and a write or commit that fails leaves the
// old contents in place and no temporary file behind.
func TestCommitFile(t *testing.T) {
	write := func(fsys FS, data string, werr error) error {
		f, err := fsys.OpenFile("cfg.tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if werr == nil {
			_, werr = f.Write([]byte(data))
		}
		return CommitFile(fsys, f, "cfg.tmp", "cfg", werr)
	}
	errBoom := errors.New("caller's write failed")
	sim := NewSim()
	if err := write(sim, "v1", nil); err != nil {
		t.Fatal(err)
	}
	sim.Crash()
	if got, err := sim.ReadFile("cfg"); err != nil || string(got) != "v1" {
		t.Fatalf("committed write not durable: %q, %v", got, err)
	}
	for _, c := range []struct {
		name string
		fsys FS
		werr error
		want error
	}{
		{"write EIO", Wrap(sim, NewPlan(1).SetAt(KindWriteEIO, 1)), nil, syscall.EIO},
		{"fsync EIO", Wrap(sim, NewPlan(1).SetAt(KindSyncEIO, 1)), nil, syscall.EIO},
		{"caller's error", sim, errBoom, errBoom},
	} {
		if err := write(c.fsys, "v2", c.werr); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if got, _ := sim.ReadFile("cfg"); string(got) != "v1" {
			t.Fatalf("%s: failed rewrite damaged file: %q", c.name, got)
		}
		if _, err := sim.ReadFile("cfg.tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: tmp file left behind: %v", c.name, err)
		}
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(sub, "f.txt")
	f, err := fsys.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	if got, err := fsys.ReadFile(p); err != nil || string(got) != "data" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	if err := fsys.Rename(p, p+".2"); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(sub)
	if err != nil || len(ents) != 1 || ents[0].Name() != "f.txt.2" {
		t.Fatalf("readdir after rename: %v, %v", ents, err)
	}
	if fi, err := fsys.Stat(p + ".2"); err != nil || fi.Size() != 4 {
		t.Fatalf("stat: %v, %v", fi, err)
	}
	if err := fsys.Remove(p + ".2"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.RemoveAll(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
}
