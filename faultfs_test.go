package insight

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/streams/wal"
)

// fsOp names the storage calls a fault can act at.
type fsOp int

const (
	opWrite fsOp = iota + 1
	opSync
	opRename
	opOpen
	opTruncate
	opRemove
	opReadDir
	// opOther is every other call (ReadFile, SyncDir); no fault acts at
	// it.
	opOther
)

// faultAct is what a fault does at its call.
type faultAct int

const (
	// actTear lets the first k mod (len+1) bytes of a write reach the
	// file, then dies; at any other call it dies instead of making it.
	actTear faultAct = iota
	// actDieAfter makes the call, then dies.
	actDieAfter
	// actCorrupt, at a rename, renames, flips one bit in the middle of
	// the renamed file, then dies.
	actCorrupt
	// actFail returns err without dying; a write first lets its first
	// k mod (len+1) bytes through, a short write.
	actFail
)

// fault is one scripted storage fault: act at the n-th call of op on a
// file whose name ends in suffix ("" matches any) — and, when minQ is
// set, is the checkpoint file of a boundary cursor at or past minQ.
type fault struct {
	op     fsOp
	suffix string
	minQ   Time
	n      int
	act    faultAct
	k      int
	err    error
	// tornTail, when positive, leaves a torn frame of that many bytes at
	// the end of the log when the fault dies: an append in flight as the
	// process died.
	tornTail int
}

// faultFS runs one fault over the real filesystem. A death is
// process-wide: from then on every call, from any goroutine, writes
// nothing and fails with wal.ErrCrashPoint. Calls are serialized, so
// no call straddles the death.
type faultFS struct {
	f fault

	mu     sync.Mutex
	calls  int    // calls matching f so far
	fired  bool   // f has acted
	dead   bool   // a death has fired
	walSeg string // the log segment last opened for writing
}

// hasFired reports whether the fault acted.
func (fs *faultFS) hasFired() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fired
}

// at runs one storage call under the script. data is what a write
// carries (nil for other calls); call makes the real call with the bytes
// to write.
func (fs *faultFS) at(op fsOp, name string, data []byte, call func([]byte) error) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return &os.PathError{Op: "storage call after death", Path: name, Err: wal.ErrCrashPoint}
	}
	f := fs.f
	if fs.fired || op != f.op || !strings.HasSuffix(name, f.suffix) || !f.reaches(name) {
		return call(data)
	}
	if fs.calls++; fs.calls < f.n {
		return call(data)
	}
	fs.fired = true
	switch f.act {
	case actFail:
		if data != nil {
			if err := call(data[:f.k%(len(data)+1)]); err != nil {
				return err
			}
		}
		return &os.PathError{Op: "scripted failure", Path: name, Err: f.err}
	case actTear:
		if err := call(data[:f.k%(len(data)+1)]); err != nil {
			return err
		}
	case actDieAfter, actCorrupt:
		if err := call(data); err != nil {
			return err
		}
		if f.act == actCorrupt {
			if err := flipMiddleBit(name); err != nil {
				return err
			}
		}
	}
	return fs.die(name)
}

// reaches reports whether name passes the fault's boundary filter.
func (f fault) reaches(name string) bool {
	if f.minQ == 0 {
		return true
	}
	q, ok := parseCheckpointName(strings.TrimSuffix(filepath.Base(name), ".tmp"))
	return ok && q >= f.minQ
}

// die kills the process, leaving the script's torn tail on the log.
func (fs *faultFS) die(name string) error {
	fs.dead = true
	if fs.f.tornTail > 0 {
		// A frame header claiming more bytes than the tail holds.
		torn := make([]byte, fs.f.tornTail)
		for i := range torn {
			torn[i] = 0xff
		}
		f, err := os.OpenFile(fs.walSeg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		_, err = f.Write(torn)
		if err := errors.Join(err, f.Close()); err != nil {
			return err
		}
	}
	return &os.PathError{Op: "scripted death", Path: name, Err: wal.ErrCrashPoint}
}

func flipMiddleBit(path string) error {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return err
	}
	data[len(data)/2] ^= 0x40
	return os.WriteFile(path, data, 0o644)
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	var f vfs.File
	err := fs.at(opOpen, name, nil, func([]byte) (err error) {
		f, err = vfs.OS{}.OpenFile(name, flag, perm)
		if err == nil && strings.HasSuffix(name, ".seg") {
			fs.walSeg = name
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, name: name, f: f}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	return fs.at(opRename, newpath, nil, func([]byte) error { return os.Rename(oldpath, newpath) })
}

func (fs *faultFS) Remove(name string) error {
	return fs.at(opRemove, name, nil, func([]byte) error { return os.Remove(name) })
}

func (fs *faultFS) ReadDir(name string) (ents []os.DirEntry, err error) {
	err = fs.at(opReadDir, name, nil, func([]byte) (err error) {
		ents, err = os.ReadDir(name)
		return err
	})
	return ents, err
}

func (fs *faultFS) ReadFile(name string) (data []byte, err error) {
	err = fs.at(opOther, name, nil, func([]byte) (err error) {
		data, err = os.ReadFile(name)
		return err
	})
	return data, err
}

func (fs *faultFS) SyncDir(name string) error {
	return fs.at(opOther, name, nil, func([]byte) error { return vfs.OS{}.SyncDir(name) })
}

// faultFile routes a file's calls through its faultFS.
type faultFile struct {
	fs   *faultFS
	name string
	f    vfs.File
}

func (f *faultFile) Write(p []byte) (n int, err error) {
	err = f.fs.at(opWrite, f.name, p, func(b []byte) (err error) {
		n, err = f.f.Write(b)
		return err
	})
	return n, err
}

func (f *faultFile) Truncate(size int64) error {
	return f.fs.at(opTruncate, f.name, nil, func([]byte) error { return f.f.Truncate(size) })
}

func (f *faultFile) Sync() error {
	return f.fs.at(opSync, f.name, nil, func([]byte) error { return f.f.Sync() })
}

// Close releases the descriptor even after a death, which it still
// reports.
func (f *faultFile) Close() error {
	err := f.f.Close()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.dead {
		return &os.PathError{Op: "close after death", Path: f.name, Err: wal.ErrCrashPoint}
	}
	return err
}
