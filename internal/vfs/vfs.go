// Package vfs is the storage seam under the durable writers: the WAL
// (streams/wal) and the checkpoint files (package insight) make every
// call that creates, writes, syncs, renames, removes or lists a file
// through an FS. Production runs on OS, which is package os unchanged;
// tests substitute a filesystem that tears, corrupts, fails or dies at a
// scripted call.
package vfs

import (
	"errors"
	"os"
)

// File is the handle a writer holds on an open file.
type File interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the set of filesystem calls the durable writers make.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// SyncDir fsyncs a directory, making the entries just created,
	// renamed or removed in it durable.
	SyncDir(name string) error
}

// OS is the production FS.
type OS struct{}

// Or returns fsys, or OS when fsys is nil.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
