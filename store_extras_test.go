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
