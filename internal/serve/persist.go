// Write-through disk persistence for the plan cache. Plans are
// content-addressed already (the cache key is built from the graph and
// cluster fingerprints plus the planner options), so the store is a flat
// directory of fingerprint-named files: each insert writes one file whose
// mtime is the entry's LRU stamp, each LRU eviction deletes one, and a
// restarting server reloads the directory in stamp order — a fleet restart
// does not re-pay every synthesis.
//
// Persistence is best-effort by design: a failed write or an unreadable file
// degrades to an in-memory cache entry (or a cache miss), never to a failed
// request. Files are written atomically (temp file + rename) so a crash
// mid-write leaves no torn plan behind.

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// planFileExt names persisted plan files.
const planFileExt = ".plan"

// persistedPlan is the on-disk envelope of one cached plan. Both payloads
// travel base64-encoded: the plan JSON must be restored byte-for-byte (a
// marshalled RawMessage would be compacted, silently changing the bytes a
// restarted server serves for the same content address).
type persistedPlan struct {
	// Key is the full cache key; the filename is only its hash.
	Key string `json:"key"`
	// Plan is the WriteProgram JSON, byte-exact.
	Plan []byte `json:"plan"`
	// Bin is the WriteProgramBinary payload.
	Bin []byte `json:"bin,omitempty"`
	// Version is the plan version (see CachedPlan); files from before
	// versioning restore with zero and are normalized on load. The ETag is
	// not stored: the store derives it from Plan on every restore.
	Version uint64 `json:"version,omitempty"`
}

type diskStore struct {
	dir string
}

// newDiskStore prepares dir, creating it if needed. A directory that cannot
// be created or written is an error the caller must surface: silently
// degrading to a memory-only cache would let an operator believe plans are
// persisted until the first restart re-pays every synthesis.
func newDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	probe, err := os.CreateTemp(dir, "probe-*")
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir not writable: %w", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &diskStore{dir: dir}, nil
}

// path derives the content-addressed filename for a cache key. The key
// embeds raw fingerprints and option values; hashing it yields a fixed-size
// filesystem-safe name.
func (d *diskStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+planFileExt)
}

// save writes one plan through to disk, atomically, with mtime at (the
// entry's LRU stamp). Errors are swallowed: persistence never fails a
// request.
func (d *diskStore) save(key string, v CachedPlan, at time.Time) {
	data, err := json.Marshal(persistedPlan{Key: key, Plan: v.Plan, Bin: v.Bin, Version: v.Version})
	if err != nil {
		return
	}
	target := d.path(key)
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	os.Chtimes(tmp.Name(), at, at) // best effort: the stamp only orders a restore
	if err := os.Rename(tmp.Name(), target); err != nil {
		os.Remove(tmp.Name())
	}
}

// remove deletes an evicted plan's file.
func (d *diskStore) remove(key string) {
	os.Remove(d.path(key))
}

// load feeds every persisted plan to add in ascending-mtime order — oldest
// stamp first, so the most recently stamped plan ends up most recently used
// and a restart preserves the LRU's eviction order instead of replaying the
// directory's arbitrary listing order. Files last written before cutoff
// (the TTL horizon; zero disables) are deleted instead of restored. Returns
// how many plans add accepted. Corrupt or foreign files are skipped, not
// fatal.
func (d *diskStore) load(cutoff time.Time, add func(key string, v CachedPlan, mtime time.Time) bool) int {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	type planFile struct {
		name  string
		mtime time.Time
	}
	files := make([]planFile, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), planFileExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if !cutoff.IsZero() && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(d.dir, e.Name()))
			continue
		}
		files = append(files, planFile{name: e.Name(), mtime: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	restored := 0
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(d.dir, f.name))
		if err != nil {
			continue
		}
		var p persistedPlan
		if err := json.Unmarshal(data, &p); err != nil || p.Key == "" || len(p.Plan) == 0 {
			continue
		}
		if add(p.Key, CachedPlan{Plan: p.Plan, Bin: p.Bin, Version: p.Version}, f.mtime) {
			restored++
		}
	}
	return restored
}
