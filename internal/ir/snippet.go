package ir

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Snippet extracts a query-focused excerpt from text for result
// display: the window of at most width bytes containing the most
// distinct query terms (earliest such window on ties), with ellipses
// marking truncation. The deployed demo uses it to show WHY a result
// matched, complementing the explaining subgraph that shows why it
// RANKED where it did. Returns a prefix of the text when no term
// occurs.
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

	// Center the window on the covered hits.
	lo := hits[best].start
	hi := lo + width
	if hi > len(text) {
		hi = len(text)
		lo = hi - width
		if lo < 0 {
			lo = 0
		}
	}
	// Snap to rune and word boundaries.
	for lo > 0 && !isBoundary(text[lo-1]) {
		lo--
	}
	for hi < len(text) && !isBoundary(text[hi]) {
		hi++
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
