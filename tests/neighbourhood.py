"""The one-edit neighbourhood of a session script.

A script is read as its tokens, with comments dropped.  An edit inserts,
deletes or replaces one token, at any position; the token put in comes
from ``ALPHABET``.  Each edited text is its tokens joined by spaces, so a
line-end token starts a new line.  The tier-1 sweep in
``tests/test_session.py`` and CI's sweep through ``cli.main`` both read
their texts from here.
"""

from negset.session import _COMMENT, _TOKEN, KEYWORDS

# the 16 keywords, the nine symbols and a line end, five names, the three
# policy names that are not keywords, and the comment sign
ALPHABET = (*sorted(KEYWORDS), *"()[]{},=>", "\n", "a", "b", "A", "B", "Z",
            "strict", "agent-priority", "fewest-necessities", "#")


def one_edit_texts(text: str) -> set[str]:
    """Every distinct text that one token edit makes of ``text``.  Replacing a
    token by itself is an edit too, so the script's own tokens are among them."""
    tokens = _TOKEN.findall(_COMMENT.sub("", text))
    texts = set()
    for i in range(len(tokens) + 1):
        head, tail = tokens[:i], tokens[i:]
        texts.update(" ".join([*head, token, *tail]) for token in ALPHABET)
        if tail:
            texts.add(" ".join(head + tail[1:]))
            texts.update(" ".join([*head, token, *tail[1:]]) for token in ALPHABET)
    return texts
