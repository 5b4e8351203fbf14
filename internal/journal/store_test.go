package journal

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func storeMeta() Meta {
	return Meta{
		SchemaVersion: SchemaVersion,
		Scale:         1,
		MemWords:      1 << 20,
		Models:        []string{"ORACLE"},
		Benchmarks:    []string{"awk"},
	}
}

// deadPid returns the pid of a process that has already exited, for
// forging the lock file a SIGKILLed writer leaves behind.
func deadPid(t *testing.T) int {
	t.Helper()
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Fatalf("spawning throwaway process: %v", err)
	}
	return cmd.Process.Pid
}

// TestStoreKillSalvage is the SIGKILL-mid-append variant of
// TestCLIKillResume at the job-store level: a writer is "killed" with a
// record half-appended and its lock file still present, and OpenJob
// must take the lock over, drop the torn tail, and serve every record
// that made it to disk.
func TestStoreKillSalvage(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.OpenJob("job-a", storeMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBench("awk", map[string]int{"par": 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBench("ccom", map[string]int{"par": 9}); err != nil {
		t.Fatal(err)
	}

	// Simulate kill -9: the descriptor vanishes, but the lock stays and
	// the journal ends mid-record.
	dir := s.JobDir("job-a")
	if err := j.Journal.Close(); err != nil { // inner Close keeps the lock file
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, LockFileName),
		[]byte("pid "+itoa(deadPid(t))+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("ilpj1 deadbeef bench {\"name\":\"tru"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: stale lock taken over, torn tail truncated, complete
	// records intact.
	r, err := s.OpenJob("job-a", storeMeta())
	if err != nil {
		t.Fatalf("reopen after simulated kill: %v", err)
	}
	defer r.Close()
	if lock, err := os.ReadFile(filepath.Join(dir, LockFileName)); err != nil || string(lock) != "pid "+itoa(os.Getpid())+"\n" {
		t.Errorf("lock after takeover = %q, %v; want this process's pid", lock, err)
	}
	if r.Truncated() == 0 {
		t.Error("torn tail was not truncated")
	}
	if r.Recovered() != 2 {
		t.Errorf("recovered %d records, want 2", r.Recovered())
	}
	if _, ok := r.Lookup("ccom"); !ok {
		t.Error("record appended before the kill is missing")
	}
	// Appending must still work on the salvaged journal.
	if err := r.AppendBench("latex", map[string]int{"par": 3}); err != nil {
		t.Errorf("append after salvage: %v", err)
	}
}

// TestStoreLiveLock verifies a second writer is refused while the first
// still runs: the lock's pid is alive, so no takeover.
func TestStoreLiveLock(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.OpenJob("job-b", storeMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := s.OpenJob("job-b", storeMeta()); !errors.Is(err, ErrLocked) {
		t.Errorf("second open got %v, want ErrLocked", err)
	}
}

// TestStoreCloseReleasesLock verifies the clean-shutdown path: Close
// removes the lock, and the next open serves the journal.
func TestStoreCloseReleasesLock(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.OpenJob("job-c", storeMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBench("awk", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.JobDir("job-c"), LockFileName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lock after Close: %v, want it removed", err)
	}
	r, err := s.OpenJob("job-c", storeMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 1 {
		t.Errorf("recovered %d records, want 1", r.Recovered())
	}
}

// TestStoreKeysAndListing verifies key validation and the Jobs listing.
func TestStoreKeysAndListing(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../evil", "a/b", ".hidden", "sp ace"} {
		if _, err := s.OpenJob(bad, storeMeta()); err == nil {
			t.Errorf("OpenJob(%q) accepted an invalid key", bad)
		}
	}
	for _, key := range []string{"k2", "k1"} {
		j, err := s.OpenJob(key, storeMeta())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "k1" || keys[1] != "k2" {
		t.Errorf("Jobs() = %v, want [k1 k2]", keys)
	}
	if err := s.RemoveJob("k1"); err != nil {
		t.Fatal(err)
	}
	keys, _ = s.Jobs()
	if len(keys) != 1 || keys[0] != "k2" {
		t.Errorf("Jobs() after remove = %v, want [k2]", keys)
	}
}

// itoa avoids importing strconv in the test for one conversion.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
