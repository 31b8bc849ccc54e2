package sqlfe

import (
	"errors"
	"testing"
)

// FuzzParse feeds Parse arbitrary statements. It must never panic, and every
// error must be a *ParseError whose offset lies inside the statement (or at
// its end), since the serving layer reports that offset back to the client.
// The committed corpus holds the statements CI's planner smoke sends.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
		"SELECT * FROM points WHERE ST_Equals(pt, POINT(0.5, 0.25))",
		"SELECT * FROM points WHERE ST_Within(pt, BOX(0, 0, 1, 1)) LIMIT 7",
		"SELECT * FROM points WHERE ST_Within(pt, BOX(0.4, 0.2, 0.44, 0.28)) ORDER BY ST_Distance(pt, POINT(0.42, 0.24)) LIMIT 3",
		"select * from t where st_within(location, box(-1, -2, 3, 4)) order by st_distance(location, point(0, 0)) asc limit 2;",
		"SELECT * FROM points WHERE ST_Equals(pt, POINT(5e-1, 2.5E-1))",
		"",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, query string) {
		_, err := Parse(query)
		if err == nil {
			return
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) error %v (%T) is not a *ParseError", query, err, err)
		}
		if pe.Pos < 0 || pe.Pos > len(query) {
			t.Fatalf("Parse(%q) error offset %d outside [0, %d]", query, pe.Pos, len(query))
		}
	})
}
