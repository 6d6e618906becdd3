"""Value pools for populating synthetic databases.

Pools are plain word lists; row builders draw from them through a seeded
``numpy.random.Generator`` so databases are fully deterministic.
"""

from __future__ import annotations

import numpy as np

PERSON_FIRST = (
    "James", "Mary", "John", "Linda", "Robert", "Susan", "Michael", "Karen",
    "David", "Nancy", "Carlos", "Elena", "Ahmed", "Yuki", "Chen", "Priya",
    "Olga", "Marco", "Aisha", "Lars", "Ingrid", "Pedro", "Fatima", "Hiro",
)

PERSON_LAST = (
    "Smith", "Johnson", "Lee", "Brown", "Garcia", "Miller", "Davis", "Wilson",
    "Anderson", "Taylor", "Thomas", "Moore", "Martin", "Tanaka", "Kumar",
    "Ivanov", "Rossi", "Silva", "Khan", "Nakamura", "Larsen", "Weber",
)

CITIES = (
    "Springfield", "Riverton", "Lakewood", "Fairview", "Georgetown",
    "Madison", "Clayton", "Ashland", "Burlington", "Dayton", "Florence",
    "Greenville", "Kingston", "Milton", "Newport", "Oxford", "Salem",
    "Troy", "Winchester", "Bristol", "Dover", "Hudson",
)

COUNTRIES = (
    "France", "Japan", "Brazil", "Canada", "Germany", "India", "Italy",
    "Mexico", "Norway", "Spain", "Egypt", "Kenya", "Chile", "Poland",
    "Turkey", "Vietnam", "Australia", "Portugal", "Greece", "Sweden",
)

LANGUAGES = (
    "English", "French", "Spanish", "German", "Japanese", "Arabic",
    "Portuguese", "Hindi", "Mandarin", "Russian", "Italian", "Dutch",
    "Korean", "Swedish", "Turkish", "Greek",
)

CONTINENTS = (
    "Asia", "Europe", "Africa", "North America", "South America", "Oceania",
)

GENRES = (
    "pop", "rock", "jazz", "folk", "classical", "blues", "country",
    "electronic", "reggae", "metal",
)

PET_TYPES = ("cat", "dog", "bird", "hamster", "rabbit", "turtle", "fish")

MAJORS = (
    "Biology", "History", "Physics", "Economics", "Philosophy",
    "Mathematics", "Chemistry", "Linguistics", "Sociology", "Engineering",
)

DEPARTMENTS = (
    "Sales", "Engineering", "Marketing", "Finance", "Research", "Support",
    "Operations", "Design", "Legal", "Procurement",
)

AIRLINES = (
    "Skyways", "Aerolux", "Nimbus Air", "Polar Jet", "Coastal Air",
    "Summit Airlines", "Harbor Air", "Zephyr", "Meridian", "Aurora Air",
)

COLORS = ("red", "blue", "green", "black", "white", "silver", "yellow")

MAKERS = (
    "Volvano", "Detra", "Kaizen Motors", "Urbania", "Stellar Auto",
    "Fiorano", "Nordwagen", "Pacifica", "Everdrive", "Montania",
)

INSTRUMENTS = ("violin", "cello", "flute", "oboe", "trumpet", "harp", "piano")

SHOW_TITLES = (
    "Night Harbor", "The Long Meadow", "Silver Lining", "Crossing Paths",
    "Iron Coast", "Quiet Rooms", "Second Wind", "The Glass Garden",
    "Northern Line", "Golden Hour", "Open Water", "Paper Moon",
)

MUSEUM_NAMES = (
    "City Museum of Art", "Natural History Hall", "Maritime Museum",
    "Museum of Science", "Folk Heritage Center", "Modern Gallery",
    "Railway Museum", "Ceramics House", "Aviation Hall", "Stone Age Museum",
)

BATTLE_NAMES = (
    "Battle of Redford", "Siege of Calder", "Battle of Two Rivers",
    "Skirmish at Elm Pass", "Battle of the White Plain", "Siege of Morvane",
    "Battle of Harrow Bridge", "Battle of the Dunes",
)

DISEASES = (
    "melanoma", "glioma", "leukemia", "lymphoma", "carcinoma",
    "sarcoma", "adenoma", "neuroblastoma",
)

TISSUES = (
    "lung", "liver", "kidney", "brain", "skin", "colon", "breast",
    "pancreas", "stomach", "prostate",
)

GENE_SYMBOLS = (
    "TP53", "BRCA1", "EGFR", "KRAS", "MYC", "PTEN", "RB1", "ALK", "BRAF",
    "NRAS", "CDK4", "MDM2", "ERBB2", "VEGFA", "NOTCH1", "JAK2",
)

INSTITUTION_NAMES = (
    "Delta Research Institute", "Northgate University", "Helios Labs",
    "Civic Data Centre", "Arcadia Polytechnic", "Meridian Institute",
    "Blue Forest University", "Quantum Works", "Atlas Foundation",
    "Harbourview College",
)

PROGRAMME_NAMES = (
    "Horizon Alpha", "Green Transition", "Digital Europe", "Quantum Flag",
    "Health Shield", "Ocean Watch", "Smart Mobility", "AgriNext",
)

SPECTRAL_CLASSES = ("STAR", "GALAXY", "QSO")


def sample(pool: tuple[str, ...], rng: np.random.Generator) -> str:
    """Draw one value from a pool."""
    return pool[int(rng.integers(len(pool)))]


def person_name(rng: np.random.Generator) -> str:
    """A synthetic 'First Last' person name."""
    return f"{sample(PERSON_FIRST, rng)} {sample(PERSON_LAST, rng)}"
