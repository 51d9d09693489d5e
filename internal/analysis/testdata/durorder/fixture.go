// Package wal exercises the durorder analyzer: forward-before-append,
// rename-after-unsynced-write, missing sync-after-rename and the clean
// counterparts. The package is loaded under an import path ending in
// /wal so it falls inside the analyzer's scope.
package wal

import "os"

// sink pairs a durable file with a downstream channel.
type sink struct {
	f   *os.File
	out chan []byte
}

// badForward hands the record downstream before it is durable: finding.
func (s *sink) badForward(rec []byte) error {
	s.out <- rec
	return s.Append(rec)
}

// goodForward appends first, forwards after: clean.
func (s *sink) goodForward(rec []byte) error {
	if err := s.Append(rec); err != nil {
		return err
	}
	s.out <- rec
	return nil
}

// lossyForward forwards before appending on purpose: a best-effort tap
// whose loss on crash is acceptable, so the finding is suppressed.
func (s *sink) lossyForward(rec []byte) error {
	s.out <- rec //lint:allow durorder best-effort tap: loss on crash is acceptable here
	return s.Append(rec)
}

// Append writes and syncs one record.
func (s *sink) Append(rec []byte) error {
	if _, err := s.f.Write(rec); err != nil {
		return err
	}
	return s.f.Sync()
}

// renameUnsynced publishes a file whose contents may still be in the
// page cache, and never syncs the directory either: two findings at
// the rename.
func renameUnsynced(f *os.File, tmp, final string) error {
	if _, err := f.Write([]byte("state")); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// renameSynced syncs the file before the rename and the directory
// after it: clean.
func renameSynced(f *os.File, tmp, final, dir string) error {
	if _, err := f.Write([]byte("state")); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// renameNoDirSync syncs the file but not the directory: one finding.
func renameNoDirSync(f *os.File, tmp, final string) error {
	if _, err := f.Write([]byte("state")); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(tmp, final)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// storage is a filesystem seam: its Rename and SyncDir count as the os
// calls they stand for.
type storage interface {
	Rename(oldpath, newpath string) error
	SyncDir(name string) error
}

// seamRenameSynced renames and syncs the directory through the seam:
// clean.
func seamRenameSynced(fs storage, f *os.File, tmp, final, dir string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// seamRenameNoDirSync renames through the seam and never syncs the
// directory: one finding.
func seamRenameNoDirSync(fs storage, f *os.File, tmp, final string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return fs.Rename(tmp, final)
}
