// Package det plants one determinism violation per rule, each next to the
// legal idiom the rule deliberately permits.
package det

import (
	"encoding/json"
	"math/rand"
	"sort"
	"time"
)

// WallClock reads real time twice, once per forbidden function.
func WallClock() (int64, time.Duration) {
	t0 := time.Now()
	return t0.Unix(), time.Since(t0)
}

// GlobalDraw draws from the shared global generator.
func GlobalDraw() int {
	return rand.Intn(10)
}

// GlobalShuffle permutes through the global generator.
func GlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SeededDraw threads an explicit source: legal.
func SeededDraw(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// MapOrderJSON marshals bytes assembled from a key+value map range.
func MapOrderJSON(m map[string]int) ([]byte, error) {
	var pairs []string
	for k, v := range m {
		pairs = append(pairs, k, string(rune('0'+v)))
	}
	return json.Marshal(pairs)
}

// SortedKeysJSON uses the key-only sorted-keys idiom: legal.
func SortedKeysJSON(m map[string]int) ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]int, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return json.Marshal(vals)
}

// CountValues ranges key+value outside any JSON producer: legal.
func CountValues(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// SeededChain draws from a seeded generator built inline: legal.
func SeededChain(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(6) }

// MapSumJSON folds a key+value map range into one value it then marshals;
// the fold order is still map order.
func MapSumJSON(m map[string]int) []byte {
	total := 0
	for k, v := range m {
		_ = k
		total += v
	}
	b, _ := json.Marshal(total)
	return b
}
