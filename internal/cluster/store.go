// Write-through disk persistence for registered images. A codecompd
// process is all RAM: registration unmarshals a compressed image into
// the registry and a restart loses it. A cluster cannot afford that — a
// node restarting after a kill must come back owning exactly the images
// it owned, without the router re-uploading anything. The Store keeps
// one file per image, <hex(name)>.img, holding exactly the marshaled
// compressed payload. Save writes it atomically (tmp + rename), so the
// rename is the only commit point and a process crash mid-write leaves
// either the old image or the new one, never a torn one. The payload is
// self-checking: every format wraps its image in a romimg envelope whose
// CRC covers every byte, so on boot Load only reads the files back and
// the node's re-registration (AddImage, which unmarshals the payload and
// rebuilds the block-integrity sidecar) rejects a corrupt one.
//
// Stores written with a JSON manifest beside each .img load unchanged:
// their .img is already exactly the payload. Load runs at boot, before
// the node serves, and deletes what a crash or the earlier layout left
// behind: Save's .tmp-* files, which no rename will ever commit, and the
// <hex(name)>.json manifests, which nothing reads.
package cluster

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// StoredImage is one image recovered from disk by Load.
type StoredImage struct {
	// Name is the image's registry name.
	Name string
	// Payload is the marshaled compressed image, ready for AddImage.
	Payload []byte
}

// Store persists marshaled images under one directory. The zero value
// is not usable; construct with OpenStore. Methods are safe for
// concurrent use only to the extent the filesystem is — the node
// serializes Save/Remove per image name through its own registration
// path.
type Store struct {
	dir string
}

// OpenStore creates the directory (if needed) and returns a store over
// it.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cluster: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// path returns the file holding an image. Names are hex-encoded:
// registry names exclude '/' and whitespace but nothing else, and "..",
// case-colliding names or 200-byte unicode names must all map to safe,
// distinct, portable filenames.
func (st *Store) path(name string) string {
	return filepath.Join(st.dir, hex.EncodeToString([]byte(name))+".img")
}

// Save write-through persists one image atomically. An existing image
// of the same name is replaced.
func (st *Store) Save(name string, payload []byte) error {
	if err := writeAtomic(st.path(name), payload); err != nil {
		return fmt.Errorf("cluster: store save %q: %w", name, err)
	}
	return nil
}

// Remove deletes one image. Removing an image that is not stored is not
// an error.
func (st *Store) Remove(name string) error {
	if err := os.Remove(st.path(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: store remove %q: %w", name, err)
	}
	return nil
}

// Load reads back every stored image, sorted by name. A file that
// cannot be read or whose name does not decode is skipped and reported
// in the second return — the caller decides whether a partially
// recovered store is fatal (the node logs and serves what it has; a
// replica re-registers the rest). Load does not check payloads: the
// caller's registration does. It deletes leftover temp files and
// manifests, so it must not run beside a Save.
func (st *Store) Load() ([]StoredImage, []error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("cluster: store load: %w", err)}
	}
	var imgs []StoredImage
	var errs []error
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if leftover(e.Name()) {
			_ = os.Remove(filepath.Join(st.dir, e.Name())) // a file left in place goes at the next Load
			continue
		}
		stem, ok := strings.CutSuffix(e.Name(), ".img")
		if !ok {
			continue
		}
		name, err := hex.DecodeString(stem)
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: store file %s: not a hex-encoded image name", e.Name()))
			continue
		}
		payload, err := os.ReadFile(filepath.Join(st.dir, e.Name()))
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: store image %q: %w", name, err))
			continue
		}
		imgs = append(imgs, StoredImage{Name: string(name), Payload: payload})
	}
	sort.Slice(imgs, func(i, j int) bool { return imgs[i].Name < imgs[j].Name })
	return imgs, errs
}

// leftover reports whether a file is a temp file of writeAtomic or a
// manifest of the earlier layout, <hex(name)>.json.
func leftover(file string) bool {
	if strings.HasPrefix(file, ".tmp-") {
		return true
	}
	stem, ok := strings.CutSuffix(file, ".json")
	_, err := hex.DecodeString(stem)
	return ok && err == nil
}

// writeAtomic writes data to path via a same-directory temp file and
// rename, so readers only ever observe complete files.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
