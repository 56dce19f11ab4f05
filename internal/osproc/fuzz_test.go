package osproc

import "testing"

// FuzzParseStat: no input may panic the parser, and accepted inputs must
// produce sane fields.
func FuzzParseStat(f *testing.F) {
	f.Add([]byte("123 (cat) R 1 123 123 0 -1 4194304 100 0 0 0 15 7 0 0 20 0 1 0 100 1000000 100 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0"))
	f.Add([]byte("42 (my (evil) proc) S 1 42 42 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"))
	f.Add([]byte("1 (init) S 0 1 1 0 -1 4194560 1 0 0 0 9 8 0 0 20 0 1 0 3 1000000 100 0 0 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0\n"))
	f.Add([]byte(""))
	f.Add([]byte("1 (x"))
	f.Add([]byte("1 (x) Z"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := parseStat(1, raw)
		if err != nil {
			return
		}
		if st.CPU < 0 {
			t.Errorf("negative CPU from %q", raw)
		}
	})
}
