package smartstore_test

import (
	"bytes"
	"testing"

	smartstore "repro"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	store, set := buildStore(t, 500, smartstore.Config{Units: 10, Seed: 21})
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := smartstore.Load(&buf, smartstore.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Point queries answer identically.
	for i := 0; i < 30; i++ {
		f := set.Files[(i*41)%len(set.Files)]
		a := ask(t, store, smartstore.NewPointQuery(f.Path)).IDs
		b := ask(t, restored, smartstore.NewPointQuery(f.Path)).IDs
		if len(a) != len(b) {
			t.Fatalf("point answers differ for %q: %d vs %d", f.Path, len(a), len(b))
		}
	}
	// Stats structurally consistent.
	if restored.Stats().Files != store.Stats().Files {
		t.Fatalf("restored files = %d, want %d", restored.Stats().Files, store.Stats().Files)
	}
	if restored.Stats().Units != store.Stats().Units {
		t.Fatalf("restored units = %d, want %d", restored.Stats().Units, store.Stats().Units)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := smartstore.Load(bytes.NewBufferString("junk"), smartstore.Config{}); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestCorrelated(t *testing.T) {
	store, set := buildStore(t, 400, smartstore.Config{Units: 8, Seed: 23})
	anchor := set.Files[100]
	ids, rep, ok := store.Correlated(anchor.Path, 5)
	if !ok {
		t.Fatal("Correlated failed for existing path")
	}
	if len(ids) != 5 {
		t.Fatalf("Correlated returned %d ids, want 5", len(ids))
	}
	for _, id := range ids {
		if id == anchor.ID {
			t.Fatal("Correlated returned the anchor itself")
		}
	}
	if rep.Latency <= 0 {
		t.Fatal("no latency accounted")
	}
	if _, _, ok := store.Correlated("/absent/file", 5); ok {
		t.Fatal("Correlated succeeded for absent path")
	}
}

func TestDuplicateCandidatesFindsPlantedCopy(t *testing.T) {
	set, err := smartstore.GenerateTrace("MSN", 400, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Plant an attribute-identical copy of file 50.
	src := set.Files[50]
	dup := &smartstore.File{ID: 999999, Path: "/copy/of/file50"}
	dup.Attrs = src.Attrs
	files := append(set.Files, dup)

	store, err := smartstore.Build(files, smartstore.Config{
		Units: 8, Seed: 25,
		Attrs: []smartstore.Attr{smartstore.AttrSize, smartstore.AttrCTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, _, ok := store.DuplicateCandidates(src.Path, 8)
	if !ok {
		t.Fatal("DuplicateCandidates failed")
	}
	found := false
	for _, id := range ids {
		if id == dup.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted duplicate not among candidates %v", ids)
	}
}
