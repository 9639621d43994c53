package det

import "time"

// inTest reads the wall clock from a test file, which the analyzer exempts.
func inTest() int64 { return time.Now().UnixNano() }
