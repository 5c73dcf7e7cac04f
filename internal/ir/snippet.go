package ir

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Snippet extracts a query-focused excerpt from text for result
// display: the window of at most width bytes containing the most
// query-term occurrences (earliest such window on ties), cut at word
// boundaries where it can be, with ellipses marking truncation — at
// most width bytes plus the ellipses. The deployed demo uses it to show
// WHY a result matched, complementing the explaining subgraph that
// shows why it RANKED where it did. Returns a prefix of the text when
// no term occurs.
func Snippet(text string, q *Query, width int) string {
	if width <= 0 {
		width = 160
	}
	if len(text) <= width {
		return text
	}

	// Locate query-term occurrences as byte ranges.
	type hit struct{ start, end int }
	var hits []hit
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		if q.Has(strings.ToLower(text[start:end])) {
			hits = append(hits, hit{start, end})
		}
		start = -1
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))

	if len(hits) == 0 {
		return clipWord(text, width) + "…"
	}

	// Slide a window over the hits: choose the one covering the most
	// hits within width bytes.
	best, bestCount := 0, 0
	for i := range hits {
		count := 0
		for j := i; j < len(hits) && hits[j].end-hits[i].start <= width; j++ {
			count++
		}
		if count > bestCount {
			best, bestCount = i, count
		}
	}

	// Place a window of at most width bytes at the covered hits, then
	// trim it to word boundaries: a window that runs into the end of
	// the text is widened leftwards and starts after a boundary (or at a
	// rune start when none is before the first hit); otherwise it starts
	// at the first hit's word when the covered hits leave room for it,
	// and ends at the last boundary after them (or at a rune start when
	// there is none).
	first := hits[best].start
	last := first
	if bestCount > 0 {
		last = hits[best+bestCount-1].end
	}
	lo, hi := first, first+width
	if hi >= len(text) {
		hi = len(text)
		lo = startAfterBoundary(text, hi-width, first)
	} else {
		if b := wordStart(text, first); last-b <= width {
			lo, hi = b, b+width
		}
		hi = endAtBoundary(text, last, hi)
	}
	out := strings.TrimSpace(text[lo:hi])
	if lo > 0 {
		out = "…" + out
	}
	if hi < len(text) {
		out += "…"
	}
	return out
}

// wordStart returns the start of the word holding text[i]: the byte
// after the nearest boundary before i, or 0.
func wordStart(text string, i int) int {
	for i > 0 && !isBoundary(text[i-1]) {
		i--
	}
	return i
}

// startAfterBoundary returns where an excerpt starting near lo (and no
// later than first, a rune start) begins: lo itself at the start of a
// word, else after the first boundary in text[lo:first], else at the
// first rune start from lo.
func startAfterBoundary(text string, lo, first int) int {
	if lo == 0 || isBoundary(text[lo-1]) {
		return lo
	}
	for i := lo; i < first; i++ {
		if isBoundary(text[i]) {
			return i + 1
		}
	}
	for lo < first && !utf8.RuneStart(text[lo]) {
		lo++
	}
	return lo
}

// endAtBoundary returns where an excerpt ending near hi (and no earlier
// than last, a rune start) ends: at the last boundary in
// text[last:hi+1], else at the last rune start at or before hi.
func endAtBoundary(text string, last, hi int) int {
	for c := hi; c >= last; c-- {
		if isBoundary(text[c]) {
			return c
		}
	}
	for hi > last && !utf8.RuneStart(text[hi]) {
		hi--
	}
	return hi
}

func isBoundary(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '.' || b == ',' || b == ';'
}

// clipWord clips text to at most width bytes at a word boundary, or at
// the last rune start when its first width bytes hold none.
func clipWord(text string, width int) string {
	if len(text) <= width {
		return text
	}
	cut := width
	for cut > 0 && !isBoundary(text[cut]) {
		cut--
	}
	if cut == 0 {
		for cut = width; cut > 0 && !utf8.RuneStart(text[cut]); cut-- {
		}
	}
	return strings.TrimSpace(text[:cut])
}
