"""Lightweight natural-language tokenisation for NLQ processing.

The guidance model's lexical backend needs word-level features of the NLQ:
tokens, stems, bigrams, and stopword filtering. The paper's system relies
on off-the-shelf word embeddings (Section 4.1); in this offline
reproduction similarity is lexical (token/stem overlap), which suffices for
the template-generated NLQs of the synthetic corpus and real schema names.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Set, Tuple

_WORD_RE = re.compile(r"[A-Za-z_]+|\d+(?:\.\d+)?")

#: Function words ignored during schema linking.
STOPWORDS = frozenset("""
a an and are as at be been before after by for from has have in into is it
its list lists me of on or per please show shows than that the their them
then there these those to was were what which who whose will with give
return find display all each every
""".split())

_SIBILANTS = ("s", "x", "z", "sh", "ch")


def tokenize(text: str) -> List[str]:
    """Lowercased word and number tokens of ``text``."""
    return [match.group(0).lower() for match in _WORD_RE.finditer(text)]


def stem(token: str) -> str:
    """A deliberately naive suffix-stripping stemmer.

    Maps inflected forms and their lemmas to a common stem so that e.g.
    ``movies``/``movie`` -> ``movi`` and ``titles``/``title`` -> ``titl``,
    which is all the lexical schema linker needs.
    """
    if token.isdigit():
        return token
    word = token
    if word.endswith("ies") and len(word) >= 5:
        word = word[:-3] + "i"
    elif word.endswith("es") and len(word) >= 5 and \
            word[:-2].endswith(_SIBILANTS):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss") and len(word) >= 4:
        word = word[:-1]
    for suffix in ("ing", "est", "ed"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            word = word[: -len(suffix)]
            break
    # Fold the lemma-side variation: final silent e, and y -> i.
    if word.endswith("e") and len(word) >= 4:
        word = word[:-1]
    if word.endswith("y") and len(word) >= 4:
        word = word[:-1] + "i"
    return word


def content_tokens(text: str) -> List[str]:
    """Tokens of ``text`` with stopwords removed."""
    return [tok for tok in tokenize(text) if tok not in STOPWORDS]


def stems(text: str) -> Set[str]:
    """The set of stems of the content tokens of ``text``."""
    return {stem(tok) for tok in content_tokens(text)}


def bigrams(tokens: Sequence[str]) -> List[Tuple[str, str]]:
    """Adjacent token pairs."""
    return list(zip(tokens, tokens[1:]))


def identifier_words(identifier: str) -> List[str]:
    """Split a schema identifier into words (snake_case and camelCase)."""
    spaced = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", identifier)
    return [w for w in re.split(r"[_\s]+", spaced.lower()) if w]


def overlap_score(query_stems: Set[str], name: str) -> float:
    """Fraction of the words of ``name`` whose stem appears in the query.

    Returns 0.0 for empty names. This is the core lexical-similarity
    signal used by the COL module of the lexical guidance backend.
    """
    words = identifier_words(name)
    if not words:
        return 0.0
    hits = sum(1 for word in words if stem(word) in query_stems)
    return hits / len(words)


def contains_phrase(text: str, phrase: str) -> bool:
    """True when every token of ``phrase`` occurs contiguously in ``text``."""
    return contains_tokens(tokenize(text), tokenize(phrase))


def contains_tokens(tokens: Sequence[str], phrase: Sequence[str]) -> bool:
    """:func:`contains_phrase` over text and phrase already tokenised."""
    tokens, phrase = tuple(tokens), tuple(phrase)
    if not phrase:
        return False
    span = len(phrase)
    for start in range(len(tokens) - span + 1):
        if tokens[start:start + span] == phrase:
            return True
    return False
