// Package atomicfile replaces a file so that a crash at any point
// leaves either the old content or the new, never a mix: the one
// temp-file → fsync → rename → fsync-the-directory sequence behind the
// store manifest, the capture manifest and the checkpoint snapshot, and
// the directory fsync a sealed checkpoint segment ends with.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates or replaces dir/name with what write produces. The
// bytes go to a temporary file in dir, whose name ends in ".tmp"; it is
// fsynced, closed and renamed over name, and dir is fsynced so that the
// rename itself survives a crash. On an error dir/name is as it was
// and the temporary file is removed; a crash can leave one behind,
// which is the reader's to ignore or delete.
func Write(dir, name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-renamed or just-created file's
// directory entry is durable too.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
