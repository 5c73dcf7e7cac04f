// Package datagen generates the synthetic datasets that stand in for
// the paper's evaluation corpora (Table 1): DBLPcomplete and DBLPtop
// (bibliographic graphs over the Figure 2 schema) and DS7 and DS7cancer
// (biological graphs over the Figure 4 schema). The real datasets are a
// proprietary DBLP shred and a PubMed-derived collection; the
// generators preserve what authority-flow behaviour depends on — schema
// shape, degree distributions, node/edge counts, and a topic-driven
// keyword model so the paper's benchmark queries ([olap], [xml,
// indexing], ...) have meaningful base sets. All generation is
// deterministic given the config seed.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"
)

// dbTopics are the database-research topics used for bibliographic
// titles, each a research area's keyword pool. Paper titles mix words
// from one or two topics, so topic keywords behave like DBLP title
// terms: clustered, co-occurring, and connected through citations. The
// first topics intentionally cover the paper's Table 2 query keywords:
// olap, query optimization, xml, mining, proximity search, indexing,
// ranked search.
var dbTopics = [][]string{
	{"olap", "cube", "cubes", "aggregation", "multidimensional", "warehouse", "rollup", "analytical", "dimensions", "measures"},
	{"query", "optimization", "plans", "cost", "join", "selectivity", "optimizer", "execution", "rewriting", "cardinality"},
	{"xml", "xpath", "xquery", "semistructured", "documents", "elements", "twig", "schemas", "namespaces", "trees"},
	{"mining", "patterns", "frequent", "itemsets", "clustering", "classification", "association", "rules", "outliers", "discovery"},
	{"search", "keyword", "ranked", "proximity", "retrieval", "relevance", "ranking", "results", "answers", "top"},
	{"index", "indexing", "btree", "hash", "access", "structures", "selection", "bitmap", "inverted", "partitioning"},
	{"streams", "streaming", "continuous", "windows", "sensors", "online", "sliding", "approximation", "sketches", "load"},
	{"transactions", "concurrency", "locking", "recovery", "logging", "serializability", "isolation", "commit", "versions", "snapshots"},
	{"distributed", "parallel", "replication", "partitions", "consistency", "cluster", "scalable", "nodes", "fragmentation", "allocation"},
	{"spatial", "temporal", "moving", "objects", "trajectories", "nearest", "neighbor", "regions", "geographic", "maps"},
	{"graph", "graphs", "reachability", "paths", "subgraph", "isomorphism", "networks", "vertices", "edges", "traversal"},
	{"web", "pages", "links", "crawling", "hypertext", "sites", "services", "integration", "wrappers", "extraction"},
	{"views", "materialized", "maintenance", "rewriting", "caching", "refresh", "incremental", "definitions", "warehouses", "summary"},
	{"security", "privacy", "access", "control", "encryption", "anonymity", "authorization", "auditing", "policies", "disclosure"},
	{"storage", "disk", "memory", "buffer", "compression", "layout", "pages", "blocks", "flash", "hierarchies"},
	{"learning", "models", "estimation", "probabilistic", "statistics", "sampling", "histograms", "prediction", "training", "features"},
}

// connectives pad generated titles with the glue words real titles
// carry; several are deliberate stopwords so tokenization filtering is
// exercised.
var connectives = []string{
	"efficient", "effective", "scalable", "adaptive", "processing",
	"databases", "systems", "approach", "framework", "evaluation",
	"for", "in", "of", "and", "with", "over", "on", "the", "a", "using",
}

// titleFor samples a paper title over the given topics: 3-5 words from
// the primary topic, up to 2 from the secondary, plus connectives.
func titleFor(rng *rand.Rand, primary, secondary int) string {
	var words []string
	p := dbTopics[primary]
	for i, n := 0, 3+rng.Intn(3); i < n; i++ {
		words = append(words, p[rng.Intn(len(p))])
	}
	if secondary >= 0 {
		s := dbTopics[secondary]
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			words = append(words, s[rng.Intn(len(s))])
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		words = append(words, connectives[rng.Intn(len(connectives))])
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return strings.Join(words, " ")
}

// syllables feed the deterministic name generator.
var nameSyllables = []string{
	"al", "an", "ar", "ber", "bra", "chen", "dan", "der", "dim", "el",
	"fan", "gar", "gupta", "han", "hari", "ion", "jen", "kal", "kim", "kos",
	"lau", "lee", "li", "lin", "mar", "mo", "nar", "os", "pap", "par",
	"qui", "raj", "ram", "ros", "sal", "sen", "shi", "sun", "tan", "tor",
	"ul", "van", "wang", "wei", "xu", "yan", "zan", "zhou",
}

// personName generates a deterministic "F. Surname" style author name.
func personName(rng *rand.Rand) string {
	initial := string(rune('A' + rng.Intn(26)))
	n := 2 + rng.Intn(2)
	var b strings.Builder
	for i := 0; i < n; i++ {
		s := nameSyllables[rng.Intn(len(nameSyllables))]
		if i == 0 {
			s = strings.ToUpper(s[:1]) + s[1:]
		}
		b.WriteString(s)
	}
	return fmt.Sprintf("%s. %s", initial, b.String())
}

// conferenceNames label synthetic venues; beyond the list, names are
// numbered.
var conferenceNames = []string{
	"ICDE", "SIGMOD", "VLDB", "EDBT", "CIKM", "PODS", "WWW", "KDD",
	"SSDBM", "DASFAA", "WISE", "ER", "DEXA", "SDM", "ICDM", "WSDM",
}

func conferenceName(i int) string {
	if i < len(conferenceNames) {
		return conferenceNames[i]
	}
	return fmt.Sprintf("CONF%d", i)
}

// NumTopics returns the number of title topics available.
func NumTopics() int { return len(dbTopics) }

// TopicWords returns the full keyword pool of topic i (a copy). Useful
// as a generator-independent relevance proxy: a title about topic i
// contains several of these words.
func TopicWords(i int) []string {
	return append([]string(nil), dbTopics[i]...)
}

// TopicByWord returns the index of the first topic whose pool contains
// the (lowercase) word, or -1.
func TopicByWord(w string) int {
	for i, t := range dbTopics {
		for _, tw := range t {
			if tw == w {
				return i
			}
		}
	}
	return -1
}

// TopicQuery returns a representative 1-2 keyword query for topic i
// (its first pool words), used by the survey simulations.
func TopicQuery(i int, terms int) []string {
	if terms <= 0 {
		terms = 1
	}
	w := dbTopics[i]
	if terms > len(w) {
		terms = len(w)
	}
	return append([]string(nil), w[:terms]...)
}
