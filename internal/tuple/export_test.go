package tuple

// MaxCanonicalNames exports the name-table and interner cap to the tests.
const MaxCanonicalNames = maxCanonicalNames
