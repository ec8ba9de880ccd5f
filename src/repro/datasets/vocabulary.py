"""Word lists feeding the synthetic corpus generators.

The bibliographic vocabulary is organized by research *area* so that
generated titles exhibit the keyword co-occurrence structure the
dependence score (Section IV-B) feeds on: terms of one area co-occur
within the same publications far more often than across areas.  The
lists deliberately include

* the exact terms of the paper's running examples (``online``,
  ``database``, ``machine``, ``learning``, ``skyline``, ``twig`` ...);
* splittable compounds (``online`` = ``on`` + ``line``, ``keyword`` =
  ``key`` + ``word``) so merge/split rules find material;
* synonym/acronym partners from :mod:`repro.lexicon.synonyms` and
  :mod:`repro.lexicon.acronyms`.
"""

from __future__ import annotations

FIRST_NAMES = [
    "john", "mary", "james", "linda", "robert", "patricia", "michael",
    "jennifer", "william", "elizabeth", "david", "barbara", "richard",
    "susan", "joseph", "jessica", "thomas", "sarah", "charles", "karen",
    "wei", "jun", "hui", "fang", "lei", "ming", "ying", "xiaofeng",
    "jiaheng", "zhifeng", "anna", "peter", "laura", "kevin", "diana",
    "victor", "rachel", "daniel", "grace", "henry",
]

LAST_NAMES = [
    "smith", "johnson", "lee", "brown", "garcia", "miller", "davis",
    "wilson", "anderson", "taylor", "thomas", "moore", "martin",
    "thompson", "white", "lopez", "clark", "lewis", "walker", "hall",
    "chen", "wang", "zhang", "liu", "yang", "huang", "zhao", "wu",
    "zhou", "xu", "sun", "ma", "zhu", "hu", "guo", "lin", "luo",
    "tang", "feng", "han",
]

#: Research areas: area name -> characteristic title terms.  Compounds
#: with natural split points come first so they dominate title heads.
AREAS = {
    "database": [
        "database", "query", "optimization", "transaction", "index",
        "join", "relational", "schema", "storage", "concurrency",
        "recovery", "view", "materialized", "skyline", "computation",
        "online", "processing", "efficient", "scalable", "distributed",
        "partitioning", "aggregation", "stream", "data", "base",
    ],
    "xml": [
        "xml", "keyword", "search", "twig", "pattern", "matching",
        "path", "structural", "semistructured", "dewey", "labeling",
        "holistic", "slca", "ranking", "semantic", "document",
        "element", "subtree", "query", "refinement", "efficient",
        "key", "word", "match",
    ],
    "ir": [
        "information", "retrieval", "ranking", "relevance", "feedback",
        "term", "weighting", "inverted", "corpus", "precision",
        "recall", "evaluation", "keyword", "search", "engine",
        "clustering", "classification", "text", "mining", "topic",
    ],
    "ml": [
        "machine", "learning", "training", "neural", "network",
        "kernel", "support", "vector", "classification", "regression",
        "clustering", "feature", "selection", "bayesian", "inference",
        "gradient", "model", "supervised", "probabilistic", "boosting",
    ],
    "web": [
        "web", "world", "wide", "www", "page", "link", "crawler",
        "search", "engine", "hyperlink", "online", "social", "graph",
        "internet", "service", "cache", "proxy", "ranking", "spam",
        "newspaper",
    ],
    "systems": [
        "operating", "system", "kernel", "scheduling", "memory",
        "cache", "file", "network", "protocol", "distributed",
        "consistency", "replication", "fault", "tolerance", "cluster",
        "virtual", "machine", "performance", "latency", "throughput",
    ],
}

CONFERENCES = [
    "sigmod", "vldb", "icde", "edbt", "cikm", "sigir", "www", "kdd",
    "icml", "nips", "sosp", "osdi", "podc", "pods",
]

JOURNALS = [
    "tods", "vldbj", "tkde", "tois", "jmlr", "cacm", "computer",
    "internet", "computing",
]

HOBBIES = [
    "reading", "hiking", "chess", "photography", "painting", "cooking",
    "swimming", "cycling", "gardening", "piano",
]

AFFILIATIONS = [
    "national", "university", "singapore", "renmin", "china", "tsinghua",
    "stanford", "berkeley", "michigan", "wisconsin", "cornell", "eth",
]

# ---------------------------------------------------------------------
# Baseball domain
# ---------------------------------------------------------------------
LEAGUES = ["american", "national"]

DIVISIONS = ["east", "central", "west"]

TEAM_CITIES = [
    "boston", "chicago", "detroit", "cleveland", "baltimore", "seattle",
    "oakland", "texas", "atlanta", "florida", "montreal", "philadelphia",
    "houston", "pittsburgh", "cincinnati", "colorado", "francisco",
    "diego", "angeles", "york",
]

TEAM_NICKNAMES = [
    "redsox", "whitesox", "tigers", "indians", "orioles", "mariners",
    "athletics", "rangers", "braves", "marlins", "expos", "phillies",
    "astros", "pirates", "reds", "rockies", "giants", "padres",
    "dodgers", "yankees",
]

POSITIONS = [
    "pitcher", "catcher", "shortstop", "outfielder", "first", "second",
    "third", "baseman", "designated", "hitter",
]


def area_terms(area):
    """Title terms of one area; raises KeyError for unknown areas."""
    return list(AREAS[area])
