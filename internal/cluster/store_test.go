package cluster

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"codecomp"
)

func TestStoreSaveLoadRemove(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("beta", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("alpha", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}

	imgs, errs := st.Load()
	if len(errs) != 0 {
		t.Fatalf("Load errors: %v", errs)
	}
	if len(imgs) != 2 || imgs[0].Name != "alpha" || imgs[1].Name != "beta" {
		t.Fatalf("Load = %+v, want alpha,beta sorted", imgs)
	}
	if string(imgs[0].Payload) != "payload-a" {
		t.Fatalf("alpha payload = %q", imgs[0].Payload)
	}

	// Replacing overwrites in place.
	if err := st.Save("alpha", []byte("payload-a2")); err != nil {
		t.Fatal(err)
	}
	imgs, _ = st.Load()
	if string(imgs[0].Payload) != "payload-a2" {
		t.Fatalf("replaced alpha payload = %q", imgs[0].Payload)
	}

	if err := st.Remove("beta"); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("beta"); err != nil {
		t.Fatalf("Remove of absent image should be nil, got %v", err)
	}
	imgs, _ = st.Load()
	if len(imgs) != 1 || imgs[0].Name != "alpha" {
		t.Fatalf("after Remove: %+v", imgs)
	}
}

// TestStoreFilenamesAreSafe exercises names that would be path traversal
// or collisions if the store used raw names as filenames.
func TestStoreFilenamesAreSafe(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"..", "a", "A", "образ-№1"}
	for _, n := range names {
		if err := st.Save(n, []byte("x:"+n)); err != nil {
			t.Fatalf("Save(%q): %v", n, err)
		}
	}
	imgs, errs := st.Load()
	if len(errs) != 0 {
		t.Fatalf("Load errors: %v", errs)
	}
	if len(imgs) != len(names) {
		t.Fatalf("Load recovered %d images, want %d (filename collision?)", len(imgs), len(names))
	}
	for _, im := range imgs {
		if string(im.Payload) != "x:"+im.Name {
			t.Fatalf("image %q has payload %q", im.Name, im.Payload)
		}
	}
	// Nothing escaped the store directory.
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "..img")); err == nil {
		t.Fatal("'..' image escaped the store directory")
	}
}

// storedFile is where a store keeps an image: the hex-encoded name plus
// ".img", the file name every store layout shares.
func storedFile(dir, name string) string {
	return filepath.Join(dir, hex.EncodeToString([]byte(name))+".img")
}

// bootServes boots a node on dir and returns the text it serves for
// name (nil when the image is not registered) and how many images its
// recovery rejected. It fails the test if the node registered any image
// other than name.
func bootServes(t *testing.T, dir, name string) (text []byte, rejects int64) {
	t.Helper()
	n, err := NewNode(NodeOptions{Name: "boot", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, im := range n.Server().Images() {
		if im.Name != name {
			t.Fatalf("boot registered %q, want only %q", im.Name, name)
		}
	}
	rejects = n.Registry().Counter("cluster_store_recover_errors_total", "").Value()
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/images/"+name+"/text", nil))
	switch rec.Code {
	case http.StatusOK:
		return rec.Body.Bytes(), rejects
	case http.StatusNotFound:
		return nil, rejects
	}
	t.Fatalf("GET text of %q after boot: %d: %s", name, rec.Code, rec.Body)
	return nil, 0
}

// twoImages returns two real images with different texts: the stored
// one a save replaces, and the one it replaces it with.
func twoImages(t *testing.T) (oldPayload, oldText, newPayload, newText []byte) {
	t.Helper()
	oldPayload, oldText = testImage(t)
	newText = oldText[:len(oldText)/2]
	img, err := codecomp.CompressSAMC(newText, codecomp.SAMCOptions{BlockSize: testBlockSize, Connected: true})
	if err != nil {
		t.Fatal(err)
	}
	return oldPayload, oldText, img.Marshal(), newText
}

// onlyImages fails the test unless every file in dir is a stored image:
// boot recovery deletes temp files and manifests.
func onlyImages(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".img" {
			t.Fatalf("the data dir still holds %s after boot", e.Name())
		}
	}
}

// TestRecoverCrashStates builds every on-disk state a process crash
// inside Save can leave — before the temp file exists, with the temp
// file holding any prefix of the new payload, and after the rename —
// for a first save and for a replacement, and boots a node on each: it
// must serve exactly the old bytes (nothing, on a first save) or
// exactly the new ones, reject nothing, and leave only image files.
func TestRecoverCrashStates(t *testing.T) {
	oldPayload, oldText, newPayload, newText := twoImages(t)
	type crashState struct {
		name  string
		crash func(t *testing.T, st *Store)
		new   bool // the save committed
	}
	states := []crashState{{"no new file", func(*testing.T, *Store) {}, false}}
	for _, n := range []int{0, 1, 9, len(newPayload) / 2, len(newPayload) - 1, len(newPayload)} {
		prefix := newPayload[:n]
		states = append(states, crashState{fmt.Sprintf("temp file with %d of %d bytes", n, len(newPayload)), func(t *testing.T, st *Store) {
			if err := os.WriteFile(filepath.Join(st.Dir(), ".tmp-1234567890"), prefix, 0o600); err != nil {
				t.Fatal(err)
			}
		}, false})
	}
	states = append(states, crashState{"renamed in place", func(t *testing.T, st *Store) {
		if err := st.Save("prog", newPayload); err != nil {
			t.Fatal(err)
		}
	}, true})

	for _, replace := range []bool{false, true} {
		kind := "first save"
		if replace {
			kind = "replacement"
		}
		for _, s := range states {
			t.Run(kind+"/"+s.name, func(t *testing.T) {
				st, err := OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var want []byte
				if replace {
					if err := st.Save("prog", oldPayload); err != nil {
						t.Fatal(err)
					}
					want = oldText
				}
				s.crash(t, st)
				if s.new {
					want = newText
				}
				got, rejects := bootServes(t, st.Dir(), "prog")
				if !bytes.Equal(got, want) {
					t.Fatalf("boot serves %d bytes, want %d (old %d, new %d)", len(got), len(want), len(oldText), len(newText))
				}
				if rejects != 0 {
					t.Fatalf("boot rejected %d images, want 0", rejects)
				}
				onlyImages(t, st.Dir())
			})
		}
	}
}

// TestRecoverManifestLayout boots on directories written by the earlier
// two-file layout: the payload in <hex(name)>.img and, committed after
// it, a JSON manifest (name, size, CRC32-C) in <hex(name)>.json. A
// complete pair, and the torn pairs a crash between the two renames
// left (a new .img beside the old manifest, or beside none), must all
// boot with the image in the .img and leave only the .img, and deleting
// it must leave the data dir empty.
func TestRecoverManifestLayout(t *testing.T) {
	oldPayload, oldText, newPayload, newText := twoImages(t)
	manifest := func(t *testing.T, dir string, payload []byte) {
		buf, err := json.MarshalIndent(map[string]any{
			"name":   "prog",
			"size":   len(payload),
			"crc32c": crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString([]byte("prog"))+".json"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		payload  []byte
		manifest []byte // the payload the manifest describes; nil for none
		want     []byte
	}{
		{"complete pair", oldPayload, oldPayload, oldText},
		{"torn replacement", newPayload, oldPayload, newText},
		{"torn first save", newPayload, nil, newText},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(storedFile(dir, "prog"), c.payload, 0o644); err != nil {
				t.Fatal(err)
			}
			if c.manifest != nil {
				manifest(t, dir, c.manifest)
			}
			got, rejects := bootServes(t, dir, "prog")
			if !bytes.Equal(got, c.want) || rejects != 0 {
				t.Fatalf("boot serves %d bytes with %d rejects, want %d bytes and none", len(got), rejects, len(c.want))
			}
			onlyImages(t, dir)

			n, err := NewNode(NodeOptions{Name: "n", DataDir: dir, Logf: discardLogf})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/images/prog", nil))
			n.Close()
			if rec.Code != http.StatusNoContent {
				t.Fatalf("delete: %d: %s", rec.Code, rec.Body)
			}
			if got, _ := bootServes(t, dir, "prog"); got != nil {
				t.Fatalf("a boot after the delete serves %d bytes, want the image gone", len(got))
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("the data dir holds %d files after the delete, want none", len(left))
			}
		})
	}
}

// TestRecoverRejectsCorruptPayload uploads real images, corrupts one
// stored file each way a disk can — a flipped byte in the envelope's
// magic, version, CRC field, the body and the last byte, and a
// truncation — and boots a fresh node: it must register only the intact
// image, serve it byte-exact, and count every corrupt file as a
// recovery error.
func TestRecoverRejectsCorruptPayload(t *testing.T) {
	payload, text := testImage(t)
	flip := func(i int) func([]byte) []byte {
		return func(b []byte) []byte { b[i] ^= 0x40; return b }
	}
	corruptions := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"magic", flip(0)},
		{"version", flip(4)},
		{"crc", flip(5)},
		{"body", flip(len(payload) / 2)},
		{"last-byte", flip(len(payload) - 1)},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
	}
	dir := t.TempDir()
	n, err := NewNode(NodeOptions{Name: "n", DataDir: dir, Logf: discardLogf})
	if err != nil {
		t.Fatal(err)
	}
	upload := func(name string) {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/images?name="+name, bytes.NewReader(payload)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("upload %s: %d: %s", name, rec.Code, rec.Body)
		}
	}
	upload("good")
	for _, c := range corruptions {
		upload("bad-" + c.name)
	}
	n.Close()
	for _, c := range corruptions {
		path := storedFile(dir, "bad-"+c.name)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, c.mutate(buf), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, rejects := bootServes(t, dir, "good")
	if !bytes.Equal(got, text) {
		t.Fatalf("intact image serves %d bytes, want its %d-byte text", len(got), len(text))
	}
	if rejects != int64(len(corruptions)) {
		t.Fatalf("recovery counted %d errors, want one per corrupt file (%d)", rejects, len(corruptions))
	}
}
