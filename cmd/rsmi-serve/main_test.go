package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"rsmi"
)

// TestUnreadableSnapshotIsNotOverwritten: a -snapshot path that exists but
// cannot be opened — here a symlink loop, which fails to open even for
// root — is an error. The server must neither build from the data set nor
// save the build over the operator's file.
func TestUnreadableSnapshotIsNotOverwritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := os.Symlink(filepath.Base(path), path); err != nil {
		t.Skipf("cannot make a symlink: %v", err)
	}
	if _, err := os.Open(path); err == nil {
		t.Fatal("a symlink loop opened")
	}
	if idx, err := buildOrLoadSharded(path, "", "uniform", 500, 1, 2); err == nil {
		t.Fatalf("an unreadable snapshot gave an index of %d points, want an error", idx.Len())
	}
	if target, err := os.Readlink(path); err != nil || target != filepath.Base(path) {
		t.Fatalf("the snapshot path was replaced: readlink %q, %v", target, err)
	}
}

// TestSaveSnapshotLeavesNoTemporary: a save renames its temporary file over
// the snapshot, so none is left behind, and the saved file loads to the
// index that was saved. A missing snapshot is built and saved the same way.
func TestSaveSnapshotLeavesNoTemporary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.snap")
	idx, err := buildOrLoadSharded(path, "", "skewed", 2000, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.InsertContext(context.Background(), rsmi.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(idx, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("save left %s.tmp behind (stat: %v)", path, err)
	}
	loaded, err := buildOrLoadSharded(path, "", "skewed", 10, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() || loaded.NumShards() != 2 {
		t.Fatalf("loaded %d points on %d shards, saved %d on 2", loaded.Len(), loaded.NumShards(), idx.Len())
	}
	if found, err := loaded.PointQueryContext(context.Background(), rsmi.Pt(0.5, 0.5)); err != nil || !found {
		t.Fatalf("the point inserted before the save is lost: %v, %v", found, err)
	}
}
