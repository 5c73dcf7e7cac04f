package ir

import (
	"cmp"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSnippetShortTextUnchanged(t *testing.T) {
	q := NewQuery("olap")
	if got := Snippet("short olap text", q, 160); got != "short olap text" {
		t.Errorf("Snippet = %q", got)
	}
}

func TestSnippetCentersOnTerms(t *testing.T) {
	prefix := strings.Repeat("filler words here and there ", 20)
	text := prefix + "the olap cube aggregation core " + prefix
	q := NewQuery("olap", "cube")
	got := Snippet(text, q, 60)
	if !strings.Contains(got, "olap") || !strings.Contains(got, "cube") {
		t.Errorf("snippet missed terms: %q", got)
	}
	if len(got) > 60+20 { // width plus boundary snap + ellipses
		t.Errorf("snippet too long: %d bytes", len(got))
	}
	if !strings.HasPrefix(got, "…") || !strings.HasSuffix(got, "…") {
		t.Errorf("snippet not marked as truncated: %q", got)
	}
}

func TestSnippetPicksDensestWindow(t *testing.T) {
	// One lonely hit early, two hits close together late: the window
	// must cover the pair.
	text := "olap " + strings.Repeat("x ", 100) + "olap cube end"
	q := NewQuery("olap", "cube")
	got := Snippet(text, q, 30)
	if !strings.Contains(got, "cube") {
		t.Errorf("snippet chose the sparse window: %q", got)
	}
}

func TestSnippetNoHits(t *testing.T) {
	text := strings.Repeat("unrelated words ", 30)
	got := Snippet(text, NewQuery("olap"), 40)
	if len(got) > 45 {
		t.Errorf("no-hit snippet too long: %q", got)
	}
	if !strings.HasSuffix(got, "…") {
		t.Errorf("no-hit snippet not marked truncated: %q", got)
	}
}

func TestSnippetDefaultsAndEdges(t *testing.T) {
	if got := Snippet("", NewQuery("x"), 0); got != "" {
		t.Errorf("empty text = %q", got)
	}
	// Width 0 falls back to the default.
	long := strings.Repeat("word olap ", 50)
	got := Snippet(long, NewQuery("olap"), 0)
	if len(got) == 0 || len(got) > 200 {
		t.Errorf("default-width snippet = %d bytes", len(got))
	}
}

// FuzzSnippet: a snippet never panics and is never longer than its
// text plus the ellipses; of valid UTF-8 text it is valid UTF-8 and,
// once its ellipses are removed, an excerpt of the text.
func FuzzSnippet(f *testing.F) {
	f.Add("the olap cube aggregation", "olap", 20)
	f.Add("", "", 0)
	f.Add(strings.Repeat("ü ", 100), "ü", 10)
	f.Add(strings.Repeat("€", 60), "zzz", 160)
	f.Add(strings.Repeat("日本語", 30)+" olap", "zzz", 160)
	f.Add(strings.Repeat("日本語", 30)+" olap", "olap", 160)
	f.Add(strings.Repeat("x", 1000)+" olap "+strings.Repeat("y", 1000), "olap", 60)
	f.Fuzz(func(t *testing.T, text, term string, width int) {
		if width > 1<<20 || width < -1<<20 {
			return
		}
		got := Snippet(text, NewQuery(term), width)
		// Never longer than the input, nor than the width, plus the
		// ellipses.
		if len(got) > len(text)+2*len("…") {
			t.Fatalf("snippet grew: %d > %d", len(got), len(text))
		}
		if w := cmp.Or(max(width, 0), 160); len(got) > w+2*len("…") {
			t.Fatalf("Snippet(%q, %q, %d) = %d bytes, over the width %d plus the ellipses", text, term, width, len(got), w)
		}
		if !utf8.ValidString(text) {
			return
		}
		if !utf8.ValidString(got) {
			t.Fatalf("Snippet(%q, %q, %d) = %q: not valid UTF-8", text, term, width, got)
		}
		if !strings.Contains(text, strings.TrimSuffix(strings.TrimPrefix(got, "…"), "…")) {
			t.Fatalf("Snippet(%q, %q, %d) = %q: not an excerpt of the text", text, term, width, got)
		}
	})
}

// TestSnippetKeepsRunesWhole: a text whose first width bytes hold no
// word boundary is cut at a rune start, never inside a multi-byte rune.
func TestSnippetKeepsRunesWhole(t *testing.T) {
	for _, c := range []struct{ text, query string }{
		{strings.Repeat("€", 60), "zzz"},
		{strings.Repeat("日本語", 30) + " olap", "zzz"},
		{strings.Repeat("日本語", 30) + " olap", "olap"},
	} {
		got := Snippet(c.text, NewQuery(c.query), 160)
		if !utf8.ValidString(got) {
			t.Errorf("Snippet(%q, %q) = %q: not valid UTF-8", c.text, c.query, got)
		}
		if !strings.Contains(c.text, strings.TrimSuffix(strings.TrimPrefix(got, "…"), "…")) {
			t.Errorf("Snippet(%q, %q) = %q: not an excerpt of the text", c.text, c.query, got)
		}
	}
}

// TestSnippetBounded: a text with few boundary bytes around its hit
// still yields at most width bytes plus the ellipses, cut at word
// boundaries where there are some and at rune starts where there are
// none.
func TestSnippetBounded(t *testing.T) {
	for _, c := range []struct {
		text, query string
		width       int
		want        string
	}{
		{strings.Repeat("x", 1000) + " olap " + strings.Repeat("y", 1000), "olap", 60, "…olap…"},
		{strings.Repeat("日本語", 30) + " olap", "olap", 160, "…olap"},
		{"olap" + strings.Repeat("y", 1000), "olap", 60, ""},
		{strings.Repeat("y", 1000) + "-olap", "olap", 60, ""},
		{strings.Repeat("word ", 40) + "olap " + strings.Repeat("word ", 40), "olap", 60, "…olap word word word word word word word word word word word…"},
	} {
		got := Snippet(c.text, NewQuery(c.query), c.width)
		if len(got) > c.width+2*len("…") {
			t.Errorf("Snippet(%.20q…, %q, %d) = %d bytes, over the width", c.text, c.query, c.width, len(got))
		}
		if !strings.Contains(got, c.query) || !utf8.ValidString(got) {
			t.Errorf("Snippet(%.20q…, %q, %d) = %q: lost the hit or a rune", c.text, c.query, c.width, got)
		}
		if c.want != "" && got != c.want {
			t.Errorf("Snippet(%.20q…, %q, %d) = %q, want %q", c.text, c.query, c.width, got, c.want)
		}
	}
}
