package sim

import (
	"testing"

	"github.com/ginja-dr/ginja/internal/vfs"
)

func TestOracleCut(t *testing.T) {
	put := func(seq int, key string) chaosWrite { return chaosWrite{seq: seq, key: key} }
	del := func(seq int, key string) chaosWrite { return chaosWrite{seq: seq, key: key, deleted: true} }
	cases := []struct {
		name      string
		history   []chaosWrite
		recovered map[string]string
		want      int
	}{
		{"empty history, empty state", nil, map[string]string{}, -1},
		{"empty history, stray key", nil, map[string]string{"a": "a#0"}, -2},
		{"whole history", []chaosWrite{put(0, "a"), put(1, "b")}, map[string]string{"a": "a#0", "b": "b#1"}, 1},
		{"strict prefix", []chaosWrite{put(0, "a"), put(1, "b")}, map[string]string{"a": "a#0"}, 0},
		{"delete then put", []chaosWrite{put(0, "a"), del(1, "a"), put(2, "a")}, map[string]string{"a": "a#2"}, 2},
		{"stops at the delete", []chaosWrite{put(0, "a"), put(1, "b"), del(2, "a"), put(3, "a")}, map[string]string{"b": "b#1"}, 2},
		// The deletes restore the state of cut 0 at cut 4: the newest wins.
		{"two cuts match", []chaosWrite{put(0, "a"), put(1, "b"), put(2, "c"), del(3, "c"), del(4, "b")}, map[string]string{"a": "a#0"}, 4},
		{"empty again after deletes", []chaosWrite{put(0, "a"), del(1, "a")}, map[string]string{}, 1},
		{"value from no prefix", []chaosWrite{put(0, "a"), put(1, "a")}, map[string]string{"a": "a#7"}, -2},
		{"keys from different cuts", []chaosWrite{put(0, "a"), put(1, "b"), put(2, "a")}, map[string]string{"a": "a#2"}, -2},
	}
	for _, c := range cases {
		log := kvLog{history: c.history}
		if got := log.cut(c.recovered); got != c.want {
			t.Errorf("%s: cut = %d, want %d", c.name, got, c.want)
		}
	}
}

// A crash can predate the CreateTable WAL write reaching the cloud: the
// read-back must treat a missing table like missing keys, and the oracle
// then reports the empty prefix.
func TestOracleReadBackMissingTable(t *testing.T) {
	db, err := openDB(vfs.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1"}
	recovered, err := readBack(db, keys)
	if err != nil || len(recovered) != 0 {
		t.Fatalf("readBack without a table = %v, %v; want empty, nil", recovered, err)
	}
	log := kvLog{db: db}
	if got := log.cut(recovered); got != -1 {
		t.Fatalf("cut = %d, want -1 (the empty prefix)", got)
	}

	if err := db.CreateTable("kv", 4); err != nil {
		t.Fatal(err)
	}
	if err := log.write("k1", false); err != nil {
		t.Fatal(err)
	}
	if err := log.write("k0", false); err != nil {
		t.Fatal(err)
	}
	if err := log.write("k1", true); err != nil {
		t.Fatal(err)
	}
	if recovered, err = readBack(db, keys); err != nil {
		t.Fatal(err)
	}
	if got, ok := recovered["k0"]; !ok || got != "k0#1" || len(recovered) != 1 {
		t.Fatalf("readBack = %v, want only k0#1", recovered)
	}
	if got := log.cut(recovered); got != 2 {
		t.Fatalf("cut = %d, want 2", got)
	}
}
