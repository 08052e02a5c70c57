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

	"hap/internal/fleet"
)

// planFileExt names persisted plan files. Each holds one fleet.Entry, the
// record a plan crossing the fleet wire travels as.
const planFileExt = ".plan"

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
	data, err := json.Marshal(entryOf(key, v))
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
// how many plans add accepted. Corrupt or foreign files, and files whose
// payload is not a framed binary plan (fleet.DecodeEntry), are skipped, not
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
		e, err := fleet.DecodeEntry(data)
		if err != nil {
			continue
		}
		if add(e.Key, planOf(e), f.mtime) {
			restored++
		}
	}
	return restored
}
