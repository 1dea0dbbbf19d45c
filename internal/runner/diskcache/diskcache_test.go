package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// key returns a syntactically valid cell key (32 lowercase hex chars)
// derived from s.
func key(s string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return fmt.Sprintf("%032x", h)
}

func open(t *testing.T, opts ...Option) *Cache {
	t.Helper()
	c, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// entryFile locates the single committed entry for k in c's directory.
func entryFile(t *testing.T, c *Cache, k string) string {
	t.Helper()
	p := filepath.Join(c.Dir(), k[:2], k+".cell")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry for %s not on disk: %v", k, err)
	}
	return p
}

func TestPutGetRoundtrip(t *testing.T) {
	c := open(t)
	k := key("cell-a")
	payload := []byte(`{"val":{"Total":42}}`)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want stored payload", got, ok)
	}
	if cn := c.Counters(); cn.Hits != 1 || cn.Misses != 0 {
		t.Fatalf("counters = %+v, want one hit", cn)
	}
	// A second cache over the same dir (same fence) also hits.
	c2, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); !ok {
		t.Fatal("fresh cache over same dir missed a committed entry")
	}
}

func TestMissOnAbsent(t *testing.T) {
	c := open(t)
	if _, ok := c.Get(key("never-stored")); ok {
		t.Fatal("hit on absent key")
	}
	if cn := c.Counters(); cn.Misses != 1 || cn.Corrupt != 0 || cn.ReadErrs != 0 {
		t.Fatalf("counters = %+v, want one clean miss", cn)
	}
}

func TestMalformedKeyRejected(t *testing.T) {
	c := open(t)
	for _, bad := range []string{"", "short", strings.Repeat("g", 32), "../../../../etc/passwd0000000000"} {
		if err := c.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put accepted malformed key %q", bad)
		}
		if _, ok := c.Get(bad); ok {
			t.Fatalf("Get accepted malformed key %q", bad)
		}
	}
}

// corruptionCases mutates a committed entry in various ways; every variant
// must read as a miss, count as corrupt, and be evicted.
func TestCorruptEntriesRecompute(t *testing.T) {
	cases := []struct {
		name   string
		damage func(path string) error
	}{
		{"bit-flip", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}},
		{"truncated", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)/3], 0o644)
		}},
		{"empty", func(p string) error { return os.WriteFile(p, nil, 0o644) }},
		{"garbage", func(p string) error { return os.WriteFile(p, []byte("not json at all"), 0o644) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := open(t)
			k := key("victim-" + tc.name)
			if err := c.Put(k, []byte(`{"val":1}`)); err != nil {
				t.Fatal(err)
			}
			p := entryFile(t, c, k)
			if err := tc.damage(p); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatal("damaged entry served as a hit")
			}
			cn := c.Counters()
			if cn.Corrupt != 1 || cn.Misses != 1 || cn.Evicted != 1 {
				t.Fatalf("counters = %+v, want corrupt=miss=evicted=1", cn)
			}
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("damaged entry not evicted")
			}
		})
	}
}

func TestMisfiledEntryIsCorrupt(t *testing.T) {
	c := open(t)
	ka, kb := key("cell-a"), key("cell-b")
	if ka == kb {
		t.Fatal("test keys collide")
	}
	if err := c.Put(ka, []byte(`{"val":1}`)); err != nil {
		t.Fatal(err)
	}
	src := entryFile(t, c, ka)
	dst := filepath.Join(c.Dir(), kb[:2], kb+".cell")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(kb); ok {
		t.Fatal("entry claiming another key was trusted")
	}
	if cn := c.Counters(); cn.Corrupt != 1 {
		t.Fatalf("counters = %+v, want corrupt=1", cn)
	}
}

func TestVersionSkewEvicts(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, WithFingerprint("build-1"))
	if err != nil {
		t.Fatal(err)
	}
	k := key("cell-a")
	if err := c1.Put(k, []byte(`{"val":1}`)); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, WithFingerprint("build-2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k); ok {
		t.Fatal("entry from another binary fingerprint was trusted")
	}
	cn := c2.Counters()
	if cn.Stale != 1 || cn.Misses != 1 || cn.Evicted != 1 || cn.Corrupt != 0 {
		t.Fatalf("counters = %+v, want stale=miss=evicted=1", cn)
	}
	if n, _ := c2.Len(); n != 0 {
		t.Fatalf("stale entry still on disk (%d entries)", n)
	}
}

// An entry written before v3 has a JSON header line. A cache directory
// filled by such a binary must read as stale (a version change, recomputed
// and rewritten), not as corrupt: nothing in it is damaged.
func TestJSONHeaderEntriesAreStale(t *testing.T) {
	c := open(t)
	k := key("cell-a")
	payload := []byte(`{"Model":0}`)
	sum := sha256.Sum256(payload)
	line := fmt.Sprintf(`{"schema":"o2k-cellcache/v2","fence":%q,"key":%q,"sum":%q}`, c.Fence(), k, hex.EncodeToString(sum[:]))
	plant := func() string {
		p := filepath.Join(c.Dir(), k[:2], k+".cell")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, append([]byte(line+"\n"), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := plant()
	if _, ok := c.Get(k); ok {
		t.Fatal("a v2 entry was served")
	}
	cn := c.Counters()
	if cn.Stale != 1 || cn.Misses != 1 || cn.Evicted != 1 || cn.Corrupt != 0 {
		t.Fatalf("counters = %+v, want stale=miss=evicted=1, corrupt=0", cn)
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale entry not evicted")
	}

	plant()
	st, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checked != 1 || st.Bad != 1 || st.Stale != 1 {
		t.Fatalf("verify = %+v, want checked=bad=stale=1", st)
	}
}

// An entry a v3 binary wrote has the current envelope around a metrics record
// of another layout; a v4 entry frames its payload with an outcome tag. Even
// under this binary's fence both read as stale.
func TestV3EntriesAreStale(t *testing.T) {
	plantStale(t, "o2k-cellcache/v3", []byte("record"))
	plantStale(t, "o2k-cellcache/v4", append([]byte("v\n"), make([]byte, 240)...))
}

// A v5 entry is the current envelope around the 240-byte record that still
// carried the per-phase averages: it reads as stale under this binary's
// fence, not as a corrupt or short record.
func TestV5EntriesAreStale(t *testing.T) {
	plantStale(t, "o2k-cellcache/v5", make([]byte, 240))
}

// plantStale writes one entry under schema with a valid checksum and this
// cache's fence, and checks that Get serves nothing and counts it stale.
func plantStale(t *testing.T, schema string, payload []byte) {
	t.Helper()
	c := open(t)
	k := key("cell-a")
	sum := sha256.Sum256(payload)
	p := filepath.Join(c.Dir(), k[:2], k+".cell")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	entry := fmt.Sprintf("%s %s %s %s\n%s", schema, c.Fence(), k, hex.EncodeToString(sum[:]), payload)
	if err := os.WriteFile(p, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatalf("a %s entry was served", schema)
	}
	if cn := c.Counters(); cn.Stale != 1 || cn.Corrupt != 0 || cn.Evicted != 1 {
		t.Fatalf("%s: counters = %+v, want stale=evicted=1, corrupt=0", schema, cn)
	}
}

// The v3 header is four space-separated fields; parseEntry reads exactly
// what appendEntry writes and rejects any other line that is not JSON.
func TestEntryHeaderRoundtrip(t *testing.T) {
	h := header{Schema: Schema, Fence: "0123456789abcdef", Key: key("cell-a"), Sum: strings.Repeat("f", 64)}
	payload := []byte("payload\nwith a newline")
	data := appendEntry(nil, h, payload)
	got, gotPayload, err := parseEntry(data)
	if err != nil || got != h || string(gotPayload) != string(payload) {
		t.Fatalf("parseEntry = %+v, %q, %v; want %+v, %q", got, gotPayload, err, h, payload)
	}
	for _, bad := range []string{
		"",
		"no newline",
		"three fields only\n",
		"five fields is one too many\n",
		"a  b c\n",
		" a b c\n",
		"a b c \n",
	} {
		if _, _, err := parseEntry([]byte(bad)); err == nil {
			t.Errorf("parseEntry accepted %q", bad)
		}
	}
}

func TestFaultInjectionReads(t *testing.T) {
	ffs := NewFaultFS(nil)
	c := open(t, WithFS(ffs))
	k := key("cell-a")
	if err := c.Put(k, []byte(`{"val":1}`)); err != nil {
		t.Fatal(err)
	}

	ffs.FailReads(errors.New("injected EIO"))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit through a failing read")
	}
	if cn := c.Counters(); cn.ReadErrs != 1 || cn.Misses != 1 {
		t.Fatalf("counters = %+v, want read_errs=misses=1", cn)
	}

	ffs.FailReads(nil)
	ffs.FlipBitOnRead(1 << 20) // clamps to the last byte: a structural brace
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on a bit-rotted read")
	}
	if cn := c.Counters(); cn.Corrupt != 1 {
		t.Fatalf("counters = %+v, want corrupt=1 after bit flip", cn)
	}

	// Bit rot is detected on read, and the eviction removed the (actually
	// intact) file; a re-Put recovers.
	ffs.FlipBitOnRead(-1)
	if err := c.Put(k, []byte(`{"val":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("cache did not recover after fault cleared")
	}
}

func TestFaultInjectionWrites(t *testing.T) {
	ffs := NewFaultFS(nil)
	c := open(t, WithFS(ffs))
	k := key("cell-a")

	ffs.FailWrites(errors.New("injected ENOSPC"))
	if err := c.Put(k, []byte(`{"val":1}`)); err == nil {
		t.Fatal("Put succeeded through a failing write")
	}
	if cn := c.Counters(); cn.PutErrs != 1 {
		t.Fatalf("counters = %+v, want put_errs=1", cn)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("entry exists after failed write")
	}

	// Torn write: only a prefix reaches the disk. The commit itself
	// succeeds, but the entry must fail validation on read.
	ffs.FailWrites(nil)
	ffs.TruncateWritesAt(30)
	if err := c.Put(k, []byte(`{"val":1}`)); err != nil {
		t.Fatal(err)
	}
	ffs.TruncateWritesAt(-1)
	if _, ok := c.Get(k); ok {
		t.Fatal("torn entry served as a hit")
	}
	if cn := c.Counters(); cn.Corrupt != 1 {
		t.Fatalf("counters = %+v, want corrupt=1 after torn write", cn)
	}

	// Failed rename: temp file written, never committed, removed.
	ffs.FailRenames(errors.New("injected EXDEV"))
	if err := c.Put(k, []byte(`{"val":1}`)); err == nil {
		t.Fatal("Put succeeded through a failing rename")
	}
	ffs.FailRenames(nil)
	if _, ok := c.Get(k); ok {
		t.Fatal("entry exists after failed rename")
	}
	ents, err := os.ReadDir(filepath.Join(c.Dir(), k[:2]))
	if err == nil {
		for _, e := range ents {
			if strings.Contains(e.Name(), ".tmp.") {
				t.Fatalf("stray temp file %s after failed rename", e.Name())
			}
		}
	}
}

func TestVerifyAndClear(t *testing.T) {
	c := open(t)
	keys := []string{key("a"), key("b"), key("c")}
	for _, k := range keys {
		if err := c.Put(k, []byte(`{"val":"`+k+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Damage one entry and plant a stray temp file.
	p := entryFile(t, c, keys[1])
	if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(c.Dir(), keys[0][:2], keys[0]+".cell.tmp.1.1")
	if err := os.WriteFile(tmp, []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checked != 3 || st.Bad != 1 || st.Stale != 0 {
		t.Fatalf("verify = %+v, want checked=3 bad=1", st)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("verify left the stray temp file")
	}
	if n, _ := c.Len(); n != 2 {
		t.Fatalf("after verify, %d entries, want 2", n)
	}

	removed, err := c.Clear()
	if err != nil || removed != 2 {
		t.Fatalf("clear = %d, %v; want 2 removed", removed, err)
	}
	if n, _ := c.Len(); n != 0 {
		t.Fatalf("after clear, %d entries, want 0", n)
	}
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %s survived clear", k)
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	c := open(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				k := key(fmt.Sprintf("cell-%d", j%10))
				payload := []byte(fmt.Sprintf(`{"val":%d}`, j%10))
				if err := c.Put(k, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(k); ok && string(got) != string(payload) {
					t.Errorf("torn read: %q", got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentPutSameKeyTwoCaches races same-key commits from two Cache
// instances over one directory — the multi-process collision (two workers,
// one cell, no or degraded leases). Atomic rename must leave exactly one
// valid committed entry and no temp debris, whichever writer won.
func TestConcurrentPutSameKeyTwoCaches(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := key("contended")
	payloads := map[string]bool{}
	var wg sync.WaitGroup
	for i, c := range []*Cache{c1, c2} {
		for j := 0; j < 4; j++ {
			p := fmt.Sprintf(`{"val":%d}`, i*4+j)
			payloads[p] = true
			wg.Add(1)
			go func(c *Cache, p string) {
				defer wg.Done()
				if err := c.Put(k, []byte(p)); err != nil {
					t.Error(err)
				}
			}(c, p)
		}
	}
	wg.Wait()

	got, ok := c1.Get(k)
	if !ok || !payloads[string(got)] {
		t.Fatalf("surviving entry = %q, %v; want one of the racers' payloads", got, ok)
	}
	// Exactly one committed file for the key, zero temp leftovers.
	files, err := os.ReadDir(filepath.Join(dir, k[:2]))
	if err != nil {
		t.Fatal(err)
	}
	var cells, others int
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".cell") {
			cells++
		} else {
			others++
		}
	}
	if cells != 1 || others != 0 {
		t.Fatalf("shard dir holds %d cell files and %d leftovers, want exactly 1 and 0", cells, others)
	}
	st, err := c2.Verify()
	if err != nil || st.Bad != 0 || st.Checked != 1 {
		t.Fatalf("verify after the race = %+v, %v; want 1 clean entry", st, err)
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := Fingerprint(), Fingerprint()
	if a != b || a == "" {
		t.Fatalf("fingerprint not stable: %q vs %q", a, b)
	}
}
