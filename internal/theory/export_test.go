package theory

// ReadingBudget is Check's bound on the readings it tries, for the set-based
// oracle in check_test.go.
const ReadingBudget = readingBudget
