package sim

import (
	"errors"
	"fmt"
	"maps"

	"github.com/ginja-dr/ginja/internal/minidb"
)

// chaosWrite is one committed write in history order.
type chaosWrite struct {
	seq     int
	key     string
	deleted bool
}

// kvLog is one database's tracked workload: every committed put and
// delete on the "kv" table goes through it, so history is exactly the
// commit order the recovered state must be a prefix of.
type kvLog struct {
	db      *minidb.DB
	history []chaosWrite
}

// commits is how many tracked writes have committed; commit i has seq i.
func (l *kvLog) commits() int { return len(l.history) }

// write commits key → "key#seq", or the removal of key.
func (l *kvLog) write(key string, deleted bool) error {
	seq := len(l.history)
	if err := l.db.Update(func(tx *minidb.Txn) error {
		if deleted {
			return tx.Delete("kv", []byte(key))
		}
		return tx.Put("kv", []byte(key), []byte(fmt.Sprintf("%s#%d", key, seq)))
	}); err != nil {
		return err
	}
	l.history = append(l.history, chaosWrite{seq: seq, key: key, deleted: deleted})
	return nil
}

// cut is the consistent-prefix oracle: the newest cut point c such that
// the state after the first c+1 committed writes equals recovered, −1
// when that is the empty prefix, −2 when no prefix reproduces it. The
// newest match is the right one to report: a later write that restores an
// earlier state makes two cuts indistinguishable, and the caller's bound
// ("no older than the flushed frontier") is one-sided.
func (l *kvLog) cut(recovered map[string]string) int {
	state := make(map[string]string)
	best := -2
	if maps.Equal(state, recovered) {
		best = -1
	}
	for _, w := range l.history {
		if w.deleted {
			delete(state, w.key)
		} else {
			state[w.key] = fmt.Sprintf("%s#%d", w.key, w.seq)
		}
		if maps.Equal(state, recovered) {
			best = w.seq
		}
	}
	return best
}

// readBack reads keys from a recovered database. A crash can predate even
// the CreateTable WAL write reaching the cloud, so a missing table — like
// a missing key — is simply absence, not an error.
func readBack(db *minidb.DB, keys []string) (map[string]string, error) {
	recovered := make(map[string]string)
	for _, key := range keys {
		v, err := db.Get("kv", []byte(key))
		switch {
		case err == nil:
			recovered[key] = string(v)
		case errors.Is(err, minidb.ErrNotFound):
		case errors.Is(err, minidb.ErrNoTable):
		default:
			return nil, fmt.Errorf("get %s: %w", key, err)
		}
	}
	return recovered, nil
}
