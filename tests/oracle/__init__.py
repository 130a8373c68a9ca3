"""Reference implementations the production code is checked against.

Each module here keeps an earlier, simpler form of a piece of ``src/`` — an
object graph where production uses columns, a per-probe resolver where it
uses tables — so generated tests can compare the two on every query.
Nothing in ``src/`` imports from here.
"""
